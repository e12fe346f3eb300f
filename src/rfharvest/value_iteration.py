"""Value iteration for the harvest/sleep belief MDP.

The value function is kept exactly, as the upper envelope of finitely
many lines over belief: each backup adds one harvesting line

    alpha_h = -r0 + gamma V(q),   beta_h = r0 + r1 + gamma (V(1-p) - V(q))

and maps every existing line (alpha, beta) through the sleeping
transform (gamma (alpha + beta q), gamma beta (1 - p - q)), after which
dominated lines are pruned. (A belief-grid value iteration lives in the
tests as an independent oracle for this solver.)

The backup is iterated until the span of the step is small. With
d = V_{n+1} - V_n, the MacQueen/Porteus bounds place the fixed point
between V_{n+1} + gamma/(1-gamma) min d and V_{n+1} + gamma/(1-gamma)
max d (Puterman 1994, section 6.6.3). So once gamma/(1-gamma)
(max d - min d) < epsilon, adding the midpoint constant gamma/(1-gamma)
(max d + min d)/2 to every line lands within epsilon/2 of the fixed
point. The span is at most twice the sup norm of d, so this never stops
later than the sup-norm rule.

The bounds hold from any starting value, so a failed span check is
followed by a policy-iteration step (Puterman & Shin 1978, Hansen
1998). The greedy policy of an iterate harvests after a success and,
after a failure, sleeps the N slots its crossover implies (or never
wakes). Every line of its value is "sleep k slots, then harvest", a
sleep transform of the harvesting line through the policy's values
(V(q), V(1-p)). Those come in O(1) from the closed form in ``beliefs``,
and the next iterate is the envelope of those lines and the zero line.
A count past ``MAX_STEP_SLEEP`` is priced at the cap. Once the greedy
policy repeats or never harvests, plain backups take over. Even slowly
mixing chains then stop after a handful of backups, where the plain
loop needs about 1/(1-gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .beliefs import RewardConfig, _discount_terms, _never_wake_value, _policy_values, _sleep_count
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
    "harvest_crossover",
    "difference_range",
    "sup_difference",
]

PRUNE_TOL = 1e-12
# A policy step builds one line per slot slept: 1e5 slots take about
# 0.35 s on one core of a 2-core Xeon host and keep up to ~50k envelope
# lines. A greedy policy that sleeps longer, possible only when p + q is
# tiny, is priced at this count instead; a negative cap takes no steps.
MAX_STEP_SLEEP = 100_000


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


def prune_lines(lines: Sequence[AlphaVector], lo: float, hi: float) -> tuple[AlphaVector, ...]:
    """Keep only the lines that win by more than ``PRUNE_TOL`` somewhere on [lo, hi].

    The lines are sorted by (slope, intercept), duplicates dropped,
    unless one pass finds the slopes already strictly ascending, the
    order the backups and policy steps emit them in. Lines with
    numerically coincident slopes are merged first (the one with the
    larger value survives), then a monotone-chain sweep in slope order
    builds the upper envelope. A line's margin over its two
    envelope neighbors is concave with its peak where the neighbors
    cross, so evaluating there (clamped into the interval) bounds the
    margin over the whole envelope; lines that cannot beat it by more
    than ``PRUNE_TOL`` are dropped during the sweep.
    """
    if not lines:
        raise ValueError("cannot prune an empty line set")
    mid = 0.5 * (lo + hi)
    if all(a.beta < b.beta for a, b in zip(lines, lines[1:])):
        ordered = lines
    else:
        ordered = sorted(set(lines), key=lambda l: (l.beta, l.alpha))
    dedup: list[AlphaVector] = []
    for ln in ordered:
        if dedup and ln.beta - dedup[-1].beta <= PRUNE_TOL:
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
                if top.at(x) <= max(hull[-2].at(x), ln.at(x)) + PRUNE_TOL:
                    hull.pop()
                    continue
            else:
                # a lone flatter line wins (if ever) at the left endpoint
                if top.at(lo) <= ln.at(lo) + PRUNE_TOL:
                    hull.pop()
                    continue
            break
        hull.append(ln)
    # the steepest line must beat its neighbor by more than PRUNE_TOL at the
    # right endpoint to win inside the interval at all
    while len(hull) >= 2 and hull[-1].at(hi) <= hull[-2].at(hi) + PRUNE_TOL:
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

    def value(self, b):
        if isinstance(b, float) or isinstance(b, int):
            return max(line.alpha + line.beta * b for line in self.lines)
        arr = np.asarray(b, dtype=float)
        ab = np.array(self.lines)
        vals = np.max(ab[:, :1] + ab[:, 1:] * arr.reshape(1, -1), axis=0)
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
    """``value``, within ``epsilon``/2 of the fixed point, and its greedy
    ``crossover`` and ``sleep_slots`` (None: never wake after a failure)."""

    value: PiecewiseLinearValue
    iterations: int
    epsilon: float
    crossover: float
    sleep_slots: int | None


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
    """One exact backup: the sleep-transformed lines, which keep their
    slope order, then the new harvesting line, usually the steepest."""
    lo, hi = _domain(params)
    v_fail = v.value(lo)
    v_good = v.value(hi)
    new_lines = [*_sleep_lines(v.lines, params, cfg.gamma), _harvest_line(v_fail, v_good, cfg)]
    return PiecewiseLinearValue(lines=prune_lines(new_lines, lo, hi), lo=lo, hi=hi)


def zero_alpha_value(params: GEParams) -> PiecewiseLinearValue:
    lo, hi = _domain(params)
    return PiecewiseLinearValue(lines=(AlphaVector(0.0, 0.0),), lo=lo, hi=hi)


def _envelope_at(lines: Sequence[AlphaVector], xs: Sequence[float]) -> list[float]:
    """Envelope values at ascending beliefs in one pass over slope-sorted lines.

    As the belief rises the maximizing line only moves right, so one
    pointer, advanced while the next line is at least as high, finds it.
    """
    i, last = 0, len(lines) - 1
    a0, b0 = lines[0]
    out = []
    for x in xs:
        y0 = a0 + b0 * x
        while i < last:
            a, b = lines[i + 1]
            y = a + b * x
            if y < y0:
                break
            i, a0, b0, y0 = i + 1, a, b, y
        out.append(y0)
    return out


def difference_range(
    v1: PiecewiseLinearValue, v2: PiecewiseLinearValue
) -> tuple[float, float]:
    """Exact (min, max) of v1 - v2 over their shared belief interval.

    The difference is linear between the breakpoints of the two
    envelopes, so its extremes lie on their union plus the endpoints.
    Sorting the two ascending runs merges them, and each envelope is
    then evaluated in O(points + lines).
    """
    xs = sorted([v1.lo, *v1.breakpoints(), v1.hi, *v2.breakpoints()])
    diffs = [y1 - y2 for y1, y2 in zip(_envelope_at(v1.lines, xs), _envelope_at(v2.lines, xs))]
    return min(diffs), max(diffs)


def sup_difference(v1: PiecewiseLinearValue, v2: PiecewiseLinearValue) -> float:
    """Exact sup-norm distance between two same-domain value functions."""
    d_min, d_max = difference_range(v1, v2)
    return max(-d_min, d_max)


def _policy_value(
    n: int | None, params: GEParams, cfg: RewardConfig
) -> PiecewiseLinearValue:
    """Value of "harvest after a success; after a failure sleep n slots,
    then harvest" (n None: never harvest after a failure), where each
    belief may also sleep fewer slots, or forever, before joining it.

    The policy's values (x, y) = (V(q), V(1-p)) are the closed-form
    (gamma^n v_wake, v_good) of ``beliefs._policy_values``; with n None, x = 0
    and y is the value of a run of harvests, ``beliefs._never_wake_value``.
    With h the harvesting line through (x, y) and
    S the sleep transform, the result is the envelope of S^k h,
    k = 0..n, and the zero line, emitted flattest first for
    ``prune_lines``.
    """
    g = cfg.gamma
    lo, hi = _domain(params)
    if n is None:
        x, y = 0.0, _never_wake_value(params, cfg)
    else:
        terms = _discount_terms(n, g)
        v_good, v_wake = _policy_values(terms, params, cfg)
        x, y = float(terms[3] * v_wake), float(v_good)
    lines = [_harvest_line(x, y, cfg)]
    for _ in range(n or 0):
        lines.extend(_sleep_lines(lines[-1:], params, g))
    lines.append(AlphaVector(0.0, 0.0))
    lines.reverse()
    return PiecewiseLinearValue(lines=prune_lines(lines, lo, hi), lo=lo, hi=hi)


def solve(
    params: GEParams,
    cfg: RewardConfig,
    settings: VISettings | None = None,
) -> SolveResult:
    """Back up until the span stopping rule is met, with policy steps.

    Stops at the first backup whose step d satisfies gamma/(1-gamma)
    (max d - min d) < epsilon, and returns that iterate with every alpha
    raised by gamma/(1-gamma) (max d + min d)/2: a value function within
    epsilon/2 of the fixed point in sup norm. The constant shift leaves
    the slopes, and so the greedy crossover, unchanged. With gamma = 0
    the bound is 0 after the first backup, which is already exact.

    After each failed check the greedy policy of the backed-up iterate
    is priced exactly, its count clamped to ``MAX_STEP_SLEEP``, and its
    value becomes the next iterate, until the greedy policy repeats one
    already priced or never harvests. ``iterations`` counts backups
    only; ``crossover`` and ``sleep_slots`` read the returned value.
    """
    settings = settings or VISettings()
    eps = settings.resolved_epsilon(cfg)
    scale = cfg.gamma / (1.0 - cfg.gamma)

    v = zero_alpha_value(params)
    priced: set[int | None] = set()
    stepping = MAX_STEP_SLEEP >= 0
    for it in range(1, settings.max_iterations + 1):
        v_next = bellman_backup_alpha(v, params, cfg)
        d_min, d_max = difference_range(v_next, v)
        v = v_next
        span = scale * (d_max - d_min)
        if span < eps:
            shift = scale * 0.5 * (d_max + d_min)
            lines = tuple(AlphaVector(a + shift, b) for a, b in v.lines)
            v = PiecewiseLinearValue(lines=lines, lo=v.lo, hi=v.hi)
            return SolveResult(v, it, eps, *_greedy_policy(v, params, cfg))
        if stepping:
            bbar, n = _greedy_policy(v, params, cfg)
            n = n if n is None else min(n, MAX_STEP_SLEEP)
            stepping = bbar <= v.hi and n not in priced
            if stepping:
                priced.add(n)
                v = _policy_value(n, params, cfg)
    raise MaxIterationsExceeded(
        f"stopping rule not met after {settings.max_iterations} iterations "
        f"(last span bound gamma/(1-gamma)*(max d - min d) = {span:.3e}, "
        f"epsilon {eps:.3e}); gamma may be too close to 1 for this budget"
    )


def _greedy_policy(v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig) -> tuple[float, int | None]:
    """The greedy crossover of v and the sleep count it implies."""
    bbar = harvest_crossover(v, params, cfg)
    return bbar, _sleep_count(bbar, params)


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
