"""Two-state Gilbert-Elliott model of bursty energy arrivals.

A slot is either good (energy present, harvesting succeeds) or bad
(no energy, harvesting fails and costs). The state evolves as a
two-state Markov chain with per-slot escape probabilities ``p``
(good to bad) and ``q`` (bad to good).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "ArrivalState",
    "GEParams",
    "SamplePath",
    "Stationary",
    "stationary",
    "from_burst_parameterization",
    "burst_parameterization",
    "simulate",
]


class ArrivalState(Enum):
    GOOD = "G"
    BAD = "B"


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

    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic transition matrix in (GOOD, BAD) state order."""
        return np.array([[1.0 - self.p, self.p], [self.q, 1.0 - self.q]])


class Stationary(NamedTuple):
    bad: float
    good: float


@dataclass(frozen=True)
class SamplePath:
    """A simulated state sequence plus the seed that produced it.

    ``states`` holds one entry per slot, 1 for GOOD and 0 for BAD.
    All four one-step transitions have positive probability under any
    valid ``GEParams``, so every 0/1 sequence is realizable.
    """

    states: np.ndarray
    seed: int

    def __len__(self) -> int:
        return len(self.states)

    def good_fraction(self) -> float:
        return float(np.mean(self.states))


def stationary(params: GEParams) -> Stationary:
    """Stationary distribution (bad, good) = (p, q) / (p + q)."""
    total = params.p + params.q
    return Stationary(bad=params.p / total, good=params.q / total)


def from_burst_parameterization(pi_g: float, t_b: float) -> GEParams:
    """Build chain parameters from the good-state probability and the
    mean bad-burst length.

    ``t_b`` is the average number of consecutive bad slots (1/q) and
    ``pi_g`` the stationary probability of a good slot, which gives
    q = 1/t_b and p = q (1 - pi_g) / pi_g. The resulting parameters
    must still satisfy the positive-correlation constraint; boundary
    cases such as (pi_g=0.5, t_b=2) are rejected.
    """
    if not 0.0 < pi_g < 1.0:
        raise ValueError(f"pi_g must lie strictly inside (0, 1), got {pi_g}")
    if not t_b > 1.0:
        raise ValueError(f"t_b must exceed 1, got {t_b}")
    q = 1.0 / t_b
    p = q * (1.0 - pi_g) / pi_g
    return GEParams(p=p, q=q)


def burst_parameterization(params: GEParams) -> tuple[float, float]:
    """Inverse of :func:`from_burst_parameterization`: (pi_g, t_b)."""
    return stationary(params).good, 1.0 / params.q


def simulate(
    params: GEParams,
    horizon: int,
    seed: int,
    initial: ArrivalState | None = None,
) -> SamplePath:
    """Generate a seeded sample path of the arrival chain.

    Randomness comes from the Philox 4x64 counter-based generator, so
    identical (params, horizon, seed, initial) inputs reproduce the
    same path on any platform. When ``initial`` is None the first
    state is drawn from the stationary distribution.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = np.random.Generator(np.random.Philox(seed))
    if initial is None:
        good = rng.random() < stationary(params).good
    else:
        good = initial is ArrivalState.GOOD

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
    return SamplePath(states=states, seed=seed)
