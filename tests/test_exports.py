"""Every name a module exports must exist in it."""

import importlib

import pytest

MODULES = [
    "rfharvest.battery",
    "rfharvest.beliefs",
    "rfharvest.gilbert_elliott",
    "rfharvest.harness",
    "rfharvest.learning",
    "rfharvest.threshold",
    "rfharvest.value_iteration",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
