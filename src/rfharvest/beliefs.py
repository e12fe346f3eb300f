"""Belief-state arithmetic and the per-slot reward model.

The scalar belief ``b`` is the probability that the current slot is
good. The model's per-step equations are:

* harvesting earns ``(r0 + r1) b - r0`` in expectation and sleeping
  earns 0;
* harvesting reveals the state and pins the next-slot belief to
  ``1 - p`` after a success or ``q`` after a failure;
* sleeping moves the belief through the chain unobserved,
  ``b' = q + (1 - p - q) b``, an affine contraction towards the
  stationary good probability ``q / (p + q)``.

Each equation is evaluated once, in closed form, where it is used:
``belief_after_failure_and_sleep`` below, the alpha-vector backup in
``value_iteration`` and the episode loop in ``learning``. The tests
state the per-step forms separately, as the oracle for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gilbert_elliott import GEParams

__all__ = [
    "Observation",
    "RewardConfig",
    "belief_after_failure_and_sleep",
]


class Observation(Enum):
    GOOD = "G"
    BAD = "B"
    NONE = "none"


@dataclass(frozen=True)
class RewardConfig:
    """Per-slot energy bookkeeping: gain r1, failure cost r0, discount gamma."""

    r1: float
    r0: float
    gamma: float

    def __post_init__(self) -> None:
        if not self.r1 > 0.0:
            raise ValueError(f"r1 must be positive, got {self.r1}")
        if not self.r0 > 0.0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")


def belief_after_failure_and_sleep(n, params: GEParams):
    """Belief after a failed harvest followed by ``n`` sleeping slots.

    Closed form of the geometric recursion: q (1 - c^(n+1)) / (p + q)
    with c = 1 - p - q, which equals the sleeping step applied n times
    to q. ``1 - c^(n+1)`` is taken as ``-expm1((n+1) log c)``, so the
    belief keeps its relative precision when c is near 1. ``n`` may be
    an integer array, giving the beliefs elementwise.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"sleep count must be nonnegative, got {n}")
    rise = -np.expm1((n + 1.0) * params.log_persistence)
    return params.q * rise / (params.p + params.q)
