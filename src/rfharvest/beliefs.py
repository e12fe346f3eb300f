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
``belief_after_failure_and_sleep`` and the sleep-N policy values below,
the alpha-vector backup in ``value_iteration`` and the episode loop in
``learning``. The tests state the per-step forms separately, as the
oracle for those.

The policy that keeps harvesting after every success and sleeps n
slots after every failure visits three beliefs: q after a failure,
1-p after a success, and the wake-up belief b = q (1 - c^(n+1)) / (p+q).
Its values there satisfy a 3x3 linear system:

    V(q)   = gamma^n V(b)
    V(1-p) = (1-p)(r0+r1) - r0 + gamma p V(q) + gamma (1-p) V(1-p)
    V(b)   = b(r0+r1) - r0 + gamma^(n+1) (1-b) V(b) + gamma b V(1-p)

Eliminating V(q) and V(b), with G = gamma^(n+1) and d = 1 - gamma,
gives

    V(1-p) = (r1 (1-p)(1-G) + G r1 b - p r0) / ((1-G)(d + gamma p) + G b d)
    V(b)   = (b (r0+r1) - r0 + gamma b V(1-p)) / ((1-G) + G b)

Both denominators are sums of positive terms, and 1 - G and
1 - c^(n+1) come from ``expm1``, so the values keep their relative
precision as gamma or the persistence c approaches 1. (Only the
numerators mix signs; where their terms cancel, V(1-p) is near 0 and
the never-harvest boundary is near.) This one closed form gives the
scan over n in ``threshold``, every reported policy value and the
policy-iteration steps of ``value_iteration``; the tests check it
against a direct solve of the system and a 60-digit oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gilbert_elliott import GEParams, stationary

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
    """Per-slot energy bookkeeping: gain r1, failure cost r0, discount
    gamma. The one check of their domain, the CLI's and tables' too."""

    r1: float
    r0: float
    gamma: float

    def __post_init__(self) -> None:
        for name, r in (("r1", self.r1), ("r0", self.r0)):
            if not 0.0 < r < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {r}")
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
    _check_counts(n)
    return _wake_belief(n + 1.0, params)


def _check_counts(n) -> None:
    # n stays as given, so an int runs through as float scalars; np.any
    # alone costs microseconds on the 0-d array a scalar would become
    if (np.asarray(n) < 0).any():
        raise ValueError(f"sleep count must be nonnegative, got {n}")


def _wake_belief(steps, params):
    """q (1 - c^steps) / (p + q): the belief ``steps`` slots after a
    failed one. Each field of ``params`` may also be an array as long as
    ``steps``, one chain per element."""
    # x (-q) is -(q x) exactly, so the sign rides on the multiply
    return np.expm1(steps * params.log_persistence) * -params.q / (params.p + params.q)


def _sleep_count(bbar: float, params: GEParams) -> int | None:
    """Slots to sleep after a failure under harvest threshold ``bbar``:
    the inverse of ``belief_after_failure_and_sleep``.

    After a failure the belief climbs toward the stationary good
    probability, so a threshold at or above it is never reached: None,
    never wake. Otherwise the count is

        N = ceil(log_c ((q - (p+q) bbar) / q)) - 1,  c = 1 - p - q,

    clamped at zero (thresholds at or below q need no sleeping).
    """
    if math.isnan(bbar):
        raise ValueError("threshold must be a number")
    if bbar >= stationary(params).good:
        return None
    if bbar <= params.q:
        return 0
    arg = (params.q - (params.p + params.q) * bbar) / params.q
    # a wake-up belief exactly on the threshold counts as clearing it;
    # the epsilon absorbs float noise in the log at such boundaries
    n = math.ceil(math.log(arg) / params.log_persistence - 1e-9) - 1
    return max(0, n)


def _discount_terms(n, gamma: float) -> tuple:
    """The parts of the sleep-n policy values that depend only on n and
    gamma: (n + 1, 1 - G, G, gamma^n) with G = gamma^(n+1). n may be an
    int or an int array, giving the terms elementwise."""
    _check_counts(n)
    steps = n + 1.0
    big_g = gamma**steps
    d = 1.0 - gamma
    # where d rounds to 1 (gamma 0 or below 1.1e-16) log1p(-d) is
    # undefined, and gamma^(n+1) is too small for 1 - G to cancel
    rest = -np.expm1(steps * math.log1p(-d)) if d < 1.0 else 1.0 - big_g
    return steps, rest, big_g, gamma**n


def _never_wake_value(params: GEParams, cfg: RewardConfig) -> float:
    """y = V(1-p) of "harvest while succeeding, never after a failure":
    a run of harvests that each earn r1 (1-p) - r0 p, ended by the
    first failure, (r1 (1-p) - r0 p) / (1 - gamma + gamma p). It is
    positive whenever (1-p) r1 > p r0, even where no sleep count pays."""
    g, p = cfg.gamma, params.p
    return (cfg.r1 * (1.0 - p) - cfg.r0 * p) / ((1.0 - g) + g * p)


def _policy_values(terms: tuple, params: GEParams, cfg: RewardConfig):
    """(v_good, v_wake) of the sleep-n policy from the closed form above,
    in place and in the formulas' operation order; v_fail = gamma^n v_wake
    is left to the callers that read it. ``terms`` are the
    ``_discount_terms`` of n under ``cfg.gamma``. With n an integer array
    the values come elementwise, and the fields of ``params`` may be
    arrays of the same length, as in ``_wake_belief``."""
    steps, rest, big_g = terms[:3]
    g, r1, r0 = cfg.gamma, cfg.r1, cfg.r0
    p = params.p
    b = _wake_belief(steps, params)
    big_g_b = big_g * b
    v_good = r1 * (1.0 - p) * rest
    v_good += big_g * r1 * b
    v_good -= p * r0
    den = rest * ((1.0 - g) + g * p)
    den += big_g_b * (1.0 - g)
    v_good /= den
    del den  # a long scan's peak then holds one array fewer
    v_wake = b * (r0 + r1)
    v_wake -= r0
    b *= g
    b *= v_good
    v_wake += b
    big_g_b += rest
    v_wake /= big_g_b
    return v_good, v_wake
