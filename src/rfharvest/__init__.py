"""Harvest/sleep scheduling for bursty ambient RF energy arrivals."""

__version__ = "0.1.0"
