"""Two-state Gilbert-Elliott model of bursty energy arrivals.

A slot is either good (energy present, harvesting succeeds) or bad
(no energy, harvesting fails and costs). The state evolves as a
two-state Markov chain with per-slot escape probabilities ``p``
(good to bad) and ``q`` (bad to good).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GEParams",
    "is_valid_chain",
    "Stationary",
    "stationary",
    "burst_escape_probabilities",
    "from_burst_parameterization",
    "simulate",
]


def is_valid_chain(p: float, q: float) -> bool:
    """Whether ``GEParams(p, q)`` constructs: 0 < p, q < 1 and 1 - p > q.

    The constructor states the same rule clause by clause, to name the
    clause that fails; a test keeps the two in step.
    """
    return 0.0 < p < 1.0 and 0.0 < q < 1.0 and 1.0 - p > q


@dataclass(frozen=True)
class GEParams:
    """Escape probabilities of the arrival chain.

    ``p`` is the per-slot probability of leaving the good state and
    ``q`` the probability of leaving the bad state. Only positively
    correlated chains are supported (``1 - p > q``): seeing a good
    slot must make the next slot more likely to be good than seeing
    a bad one. The belief dynamics and the threshold-policy results
    all rely on the memory factor ``1 - p - q`` lying in (0, 1), so
    chains violating it are rejected at construction rather than
    silently mishandled.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {self.p}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie strictly inside (0, 1), got {self.q}")
        if not 1.0 - self.p > self.q:
            raise ValueError(
                f"positive correlation requires 1 - p > q, got p={self.p}, q={self.q}"
            )

    @property
    def persistence(self) -> float:
        """Memory factor ``1 - p - q`` of the chain, in (0, 1)."""
        return 1.0 - self.p - self.q

    @property
    def log_persistence(self) -> float:
        """``log(1 - p - q)``, by ``_log_persistence``."""
        return _log_persistence(self.p, self.q)


def _log_persistence(p: float, q: float) -> float:
    """``log(1 - p - q)`` as ``log1p(-(p + q))``, which keeps the digits
    that forming ``1 - p - q`` loses when p + q is small; where p + q
    rounds to 1 (while 1 - p - q stays positive) the plain log."""
    s = p + q
    return math.log1p(-s) if s < 1.0 else math.log(1.0 - p - q)


class Stationary(NamedTuple):
    bad: float
    good: float


def stationary(params: GEParams) -> Stationary:
    """Stationary distribution (bad, good) = (p, q) / (p + q)."""
    total = params.p + params.q
    return Stationary(bad=params.p / total, good=params.q / total)


def burst_escape_probabilities(pi_g: float, t_b: float) -> tuple[float, float]:
    """(p, q) from the good-state probability and the mean bad-burst
    length, which need not form a valid chain.

    ``t_b`` is the average number of consecutive bad slots (1/q) and
    ``pi_g`` the stationary probability of a good slot, which gives
    q = 1/t_b and p = q (1 - pi_g) / pi_g. The one statement of the
    pair's domain: ValueError unless 0 < pi_g < 1 and 1 < t_b < inf.
    """
    if not 0.0 < pi_g < 1.0:
        raise ValueError(f"pi_g must lie strictly inside (0, 1), got {pi_g}")
    if not 1.0 < t_b < math.inf:
        raise ValueError(f"t_b must be a finite number above 1, got {t_b}")
    q = 1.0 / t_b
    return q * (1.0 - pi_g) / pi_g, q


def from_burst_parameterization(pi_g: float, t_b: float) -> GEParams:
    """``GEParams`` of ``burst_escape_probabilities``; boundary cases such
    as (pi_g=0.5, t_b=2) break positive correlation and are rejected."""
    p, q = burst_escape_probabilities(pi_g, t_b)
    return GEParams(p=p, q=q)


def simulate(params: GEParams, horizon: int, seed: int) -> np.ndarray:
    """Generate a seeded sample path of the arrival chain.

    Returns a read-only int8 array with one entry per slot, 1 for good
    and 0 for bad; the first state is drawn from the stationary
    distribution. Randomness comes from the Philox 4x64 counter-based
    generator, so identical (params, horizon, seed) inputs reproduce
    the same path on any platform.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = np.random.Generator(np.random.Philox(seed))
    good = rng.random() < stationary(params).good

    states = np.empty(horizon, dtype=np.int8)
    states[0] = 1 if good else 0
    if horizon > 1:
        u = rng.random(horizon - 1)
        stay_good = 1.0 - params.p
        leave_bad = params.q
        cur = states[0]
        for t in range(1, horizon):
            cur = 1 if u[t - 1] < (stay_good if cur else leave_bad) else 0
            states[t] = cur
    states.setflags(write=False)
    return states
