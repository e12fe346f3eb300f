"""Value iteration for the harvest/sleep belief MDP.

The value function is kept exactly, as the upper envelope of finitely
many lines over belief: each backup adds one harvesting line

    alpha_h = -r0 + gamma V(q),   beta_h = r0 + r1 + gamma (V(1-p) - V(q))

and maps every existing line (alpha, beta) through the sleeping
transform (gamma (alpha + beta q), gamma beta (1 - p - q)), after which
dominated lines are pruned. (A belief-grid value iteration lives in the
tests as an independent oracle for this solver.)

The backup is iterated until the sup-norm step falls below
epsilon (1 - gamma) / (2 gamma), which bounds the distance to the fixed
point by epsilon / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .beliefs import Action, RewardConfig
from .gilbert_elliott import GEParams

__all__ = [
    "AlphaVector",
    "PiecewiseLinearValue",
    "VISettings",
    "SolveResult",
    "MaxIterationsExceeded",
    "prune_lines",
    "bellman_backup_alpha",
    "solve",
    "q_values",
    "greedy_policy",
    "harvest_crossover",
    "sup_difference",
]

PRUNE_TOL = 1e-12


class MaxIterationsExceeded(RuntimeError):
    """Raised when the stopping rule is not met within the iteration budget."""


class AlphaVector(NamedTuple):
    alpha: float
    beta: float

    def at(self, b: float) -> float:
        return self.alpha + self.beta * b


def _crossing(low: AlphaVector, high: AlphaVector) -> float:
    """Belief where the steeper line overtakes the flatter one."""
    return (low.alpha - high.alpha) / (high.beta - low.beta)


def prune_lines(
    lines: Sequence[AlphaVector], lo: float, hi: float, tol: float = PRUNE_TOL
) -> tuple[AlphaVector, ...]:
    """Keep only the lines that win by more than ``tol`` somewhere on [lo, hi].

    Lines with numerically coincident slopes are merged first (the one
    with the larger value survives), then a monotone-chain sweep in
    slope order builds the upper envelope. A line's margin over its two
    envelope neighbors is concave with its peak where the neighbors
    cross, so evaluating there (clamped into the interval) bounds the
    margin over the whole envelope; lines that cannot beat it by more
    than ``tol`` are dropped during the sweep.
    """
    if not lines:
        raise ValueError("cannot prune an empty line set")
    mid = 0.5 * (lo + hi)
    ordered = sorted(set(lines), key=lambda l: (l.beta, l.alpha))
    dedup: list[AlphaVector] = []
    for ln in ordered:
        if dedup and ln.beta - dedup[-1].beta <= tol:
            if ln.at(mid) > dedup[-1].at(mid):
                dedup[-1] = ln
            continue
        dedup.append(ln)

    hull: list[AlphaVector] = []
    for ln in dedup:
        while hull:
            top = hull[-1]
            if len(hull) >= 2:
                x = _crossing(hull[-2], ln)
                x = lo if x < lo else hi if x > hi else x
                if top.at(x) <= max(hull[-2].at(x), ln.at(x)) + tol:
                    hull.pop()
                    continue
            else:
                # a lone flatter line wins (if ever) at the left endpoint
                if top.at(lo) <= ln.at(lo) + tol:
                    hull.pop()
                    continue
            break
        hull.append(ln)
    # the steepest line must beat its neighbor by more than tol at the
    # right endpoint to win inside the interval at all
    while len(hull) >= 2 and hull[-1].at(hi) <= hull[-2].at(hi) + tol:
        hull.pop()
    return tuple(hull)


@dataclass(frozen=True)
class PiecewiseLinearValue:
    """Upper envelope of lines over beliefs in [lo, hi], sorted by slope."""

    lines: tuple[AlphaVector, ...]
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lines:
            raise ValueError("a value function needs at least one line")
        object.__setattr__(self, "_alphas", np.array([l.alpha for l in self.lines]))
        object.__setattr__(self, "_betas", np.array([l.beta for l in self.lines]))

    def value(self, b):
        if isinstance(b, float) or isinstance(b, int):
            return max(line.alpha + line.beta * b for line in self.lines)
        arr = np.asarray(b, dtype=float)
        vals = np.max(self._alphas[:, None] + self._betas[:, None] * arr.reshape(1, -1), axis=0)
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    def breakpoints(self) -> list[float]:
        """Beliefs inside (lo, hi) where the maximizing line changes."""
        xs = []
        for a, b in zip(self.lines, self.lines[1:]):
            if b.beta > a.beta:
                x = _crossing(a, b)
                if self.lo < x < self.hi:
                    xs.append(x)
        return xs


@dataclass(frozen=True)
class VISettings:
    """Solver controls.

    ``epsilon`` is the absolute error bound fed to the stopping rule;
    when omitted it defaults to 1e-4 times the reward scale max(r0, r1).
    """

    epsilon: float | None = None
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    def resolved_epsilon(self, cfg: RewardConfig) -> float:
        return self.epsilon if self.epsilon is not None else 1e-4 * max(cfg.r0, cfg.r1)


@dataclass(frozen=True)
class SolveResult:
    value: PiecewiseLinearValue
    iterations: int
    sup_deltas: tuple[float, ...]
    epsilon: float


def _domain(params: GEParams) -> tuple[float, float]:
    return params.q, 1.0 - params.p


def _harvest_line(v_fail: float, v_good: float, cfg: RewardConfig) -> AlphaVector:
    return AlphaVector(
        alpha=-cfg.r0 + cfg.gamma * v_fail,
        beta=cfg.r0 + cfg.r1 + cfg.gamma * (v_good - v_fail),
    )


def _sleep_lines(
    lines: Sequence[AlphaVector], params: GEParams, gamma: float
) -> list[AlphaVector]:
    """Each line mapped through the sleeping transform."""
    q, c = params.q, params.persistence
    return [AlphaVector(gamma * (ln.alpha + ln.beta * q), gamma * ln.beta * c) for ln in lines]


def bellman_backup_alpha(
    v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig
) -> PiecewiseLinearValue:
    """One exact backup: new harvesting line plus sleep-transformed lines."""
    lo, hi = _domain(params)
    v_fail = v.value(lo)
    v_good = v.value(hi)
    new_lines = [_harvest_line(v_fail, v_good, cfg), *_sleep_lines(v.lines, params, cfg.gamma)]
    return PiecewiseLinearValue(lines=prune_lines(new_lines, lo, hi), lo=lo, hi=hi)


def zero_alpha_value(params: GEParams) -> PiecewiseLinearValue:
    lo, hi = _domain(params)
    return PiecewiseLinearValue(lines=(AlphaVector(0.0, 0.0),), lo=lo, hi=hi)


def sup_difference(v1: PiecewiseLinearValue, v2: PiecewiseLinearValue) -> float:
    """Exact sup-norm distance between two same-domain value functions."""
    xs = {v1.lo, v1.hi, v2.lo, v2.hi, *v1.breakpoints(), *v2.breakpoints()}
    pts = np.array(sorted(xs))
    return float(np.max(np.abs(v1.value(pts) - v2.value(pts))))


def solve(
    params: GEParams,
    cfg: RewardConfig,
    settings: VISettings | None = None,
) -> SolveResult:
    """Iterate the Bellman backup until the stopping rule is met.

    Returns a value function within epsilon/2 of the fixed point in
    sup norm. With gamma = 0 a single backup is already exact and the
    stopping threshold is treated as infinite.
    """
    settings = settings or VISettings()
    eps = settings.resolved_epsilon(cfg)
    if cfg.gamma == 0.0:
        threshold = math.inf
    else:
        threshold = eps * (1.0 - cfg.gamma) / (2.0 * cfg.gamma)

    v = zero_alpha_value(params)
    deltas: list[float] = []
    for it in range(1, settings.max_iterations + 1):
        v_next = bellman_backup_alpha(v, params, cfg)
        delta = sup_difference(v_next, v)
        deltas.append(delta)
        v = v_next
        if delta <= threshold:
            return SolveResult(value=v, iterations=it, sup_deltas=tuple(deltas), epsilon=eps)
    raise MaxIterationsExceeded(
        f"stopping rule not met after {settings.max_iterations} iterations "
        f"(last step {deltas[-1]:.3e}, threshold {threshold:.3e}); "
        "gamma may be too close to 1 for this budget"
    )


def q_values(
    v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig, b: float
) -> tuple[float, float]:
    """(harvest, sleep) action values at belief b under continuation v."""
    v_fail = v.value(params.q)
    v_good = v.value(1.0 - params.p)
    q_h = (cfg.r0 + cfg.r1) * b - cfg.r0 + cfg.gamma * ((1.0 - b) * v_fail + b * v_good)
    q_s = cfg.gamma * v.value(params.q + params.persistence * b)
    return q_h, q_s


def greedy_policy(
    v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig, b: float
) -> Action:
    """Argmax action at belief b; ties break toward harvesting."""
    q_h, q_s = q_values(v, params, cfg, b)
    return Action.HARVEST if q_h >= q_s else Action.SLEEP


def harvest_crossover(
    v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig
) -> float:
    """Smallest belief at which harvesting is greedy-optimal under v.

    The sleeping action value is an upper envelope whose slopes all lie
    strictly below the harvesting slope, so the harvest-minus-sleep gap
    is concave and nondecreasing and the crossover is the largest
    pairwise intersection. The result may fall below q (harvest
    everywhere) or at +inf (harvest nowhere).
    """
    v_fail = v.value(params.q)
    v_good = v.value(v.hi)
    h = _harvest_line(v_fail, v_good, cfg)
    best = -math.inf
    for a_s, b_s in _sleep_lines(v.lines, params, cfg.gamma):
        if h.beta - b_s <= 0.0:
            if a_s > h.alpha:
                return math.inf
            continue
        best = max(best, (a_s - h.alpha) / (h.beta - b_s))
    return best
