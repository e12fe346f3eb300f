"""Value iteration for the harvest/sleep belief MDP.

Two interchangeable representations are provided. The exact form keeps
the value function as the upper envelope of finitely many lines over
belief: each backup adds one harvesting line

    alpha_h = -r0 + gamma V(q),   beta_h = r0 + r1 + gamma (V(1-p) - V(q))

and maps every existing line (alpha, beta) through the sleeping
transform (gamma (alpha + beta q), gamma beta (1 - p - q)), after which
dominated lines are pruned. The grid form discretizes beliefs on
[q, 1-p] and serves as an independent cross-check; the two must agree
up to interpolation error.

Both solvers iterate the backup until the sup-norm step falls below
epsilon (1 - gamma) / (2 gamma), which bounds the distance to the fixed
point by epsilon / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .beliefs import Action, RewardConfig
from .gilbert_elliott import GEParams, stationary

__all__ = [
    "AlphaVector",
    "PiecewiseLinearValue",
    "GridValue",
    "VISettings",
    "SolveResult",
    "MaxIterationsExceeded",
    "prune_lines",
    "bellman_backup_alpha",
    "bellman_backup_grid",
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
class GridValue:
    """Values tabulated on an ordered belief grid, interpolated linearly."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.shape != self.values.shape or self.grid.ndim != 1:
            raise ValueError("grid and values must be matching 1-d arrays")

    @property
    def lo(self) -> float:
        return float(self.grid[0])

    @property
    def hi(self) -> float:
        return float(self.grid[-1])

    def value(self, b):
        out = np.interp(b, self.grid, self.values)
        return float(out) if np.isscalar(b) or np.asarray(b).ndim == 0 else out


ValueRepresentation = Union[PiecewiseLinearValue, GridValue]


@dataclass(frozen=True)
class VISettings:
    """Solver controls.

    ``epsilon`` is the absolute error bound fed to the stopping rule;
    when omitted it defaults to 1e-4 times the reward scale max(r0, r1).
    """

    epsilon: float | None = None
    max_iterations: int = 1_000_000
    grid_resolution: float = 1e-4

    def __post_init__(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.grid_resolution > 0.0:
            raise ValueError("grid_resolution must be positive")

    def resolved_epsilon(self, cfg: RewardConfig) -> float:
        return self.epsilon if self.epsilon is not None else 1e-4 * max(cfg.r0, cfg.r1)


@dataclass(frozen=True)
class SolveResult:
    value: ValueRepresentation
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


def bellman_backup_alpha(
    v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig
) -> PiecewiseLinearValue:
    """One exact backup: new harvesting line plus sleep-transformed lines."""
    lo, hi = _domain(params)
    v_fail = v.value(lo)
    v_good = v.value(hi)
    c = params.persistence
    new_lines = [_harvest_line(v_fail, v_good, cfg)]
    for ln in v.lines:
        new_lines.append(
            AlphaVector(cfg.gamma * (ln.alpha + ln.beta * params.q), cfg.gamma * ln.beta * c)
        )
    return PiecewiseLinearValue(lines=prune_lines(new_lines, lo, hi), lo=lo, hi=hi)


def make_grid(params: GEParams, resolution: float) -> np.ndarray:
    """Belief grid on [q, 1-p] at the requested spacing.

    The three beliefs the backup queries exactly (q, 1-p and the
    stationary good probability) are always members.
    """
    lo, hi = _domain(params)
    n = max(2, int(math.ceil((hi - lo) / resolution)) + 1)
    base = np.linspace(lo, hi, n)
    return np.unique(np.concatenate([base, [lo, hi, stationary(params).good]]))


def zero_grid_value(params: GEParams, resolution: float) -> GridValue:
    grid = make_grid(params, resolution)
    return GridValue(grid=grid, values=np.zeros_like(grid))


def zero_alpha_value(params: GEParams) -> PiecewiseLinearValue:
    lo, hi = _domain(params)
    return PiecewiseLinearValue(lines=(AlphaVector(0.0, 0.0),), lo=lo, hi=hi)


def bellman_backup_grid(v: GridValue, params: GEParams, cfg: RewardConfig) -> GridValue:
    """One backup on the grid; the sleep successor is interpolated.

    The harvest successors q and 1-p are grid endpoints, so only the
    sleeping branch incurs interpolation error.
    """
    b = v.grid
    v_fail = v.values[0]
    v_good = v.values[-1]
    q_h = (cfg.r0 + cfg.r1) * b - cfg.r0 + cfg.gamma * ((1.0 - b) * v_fail + b * v_good)
    targets = params.q + params.persistence * b
    q_s = cfg.gamma * np.interp(targets, v.grid, v.values)
    return GridValue(grid=v.grid, values=np.maximum(q_h, q_s))


def sup_difference(v1: ValueRepresentation, v2: ValueRepresentation) -> float:
    """Exact sup-norm distance between two same-domain value functions."""
    if isinstance(v1, GridValue) and isinstance(v2, GridValue):
        return float(np.max(np.abs(v1.values - v2.values)))
    xs = {v1.lo, v1.hi, v2.lo, v2.hi}
    for v in (v1, v2):
        if isinstance(v, PiecewiseLinearValue):
            xs.update(v.breakpoints())
    pts = np.array(sorted(xs))
    return float(np.max(np.abs(v1.value(pts) - v2.value(pts))))


def solve(
    params: GEParams,
    cfg: RewardConfig,
    settings: VISettings | None = None,
    representation: str = "alpha",
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

    if representation == "alpha":
        v: ValueRepresentation = zero_alpha_value(params)
        backup = bellman_backup_alpha
    elif representation == "grid":
        v = zero_grid_value(params, settings.grid_resolution)
        backup = bellman_backup_grid
    else:
        raise ValueError(f"unknown representation {representation!r}")

    deltas: list[float] = []
    for it in range(1, settings.max_iterations + 1):
        v_next = backup(v, params, cfg)
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
    v: ValueRepresentation, params: GEParams, cfg: RewardConfig, b: float
) -> tuple[float, float]:
    """(harvest, sleep) action values at belief b under continuation v."""
    v_fail = v.value(params.q)
    v_good = v.value(1.0 - params.p)
    q_h = (cfg.r0 + cfg.r1) * b - cfg.r0 + cfg.gamma * ((1.0 - b) * v_fail + b * v_good)
    q_s = cfg.gamma * v.value(params.q + params.persistence * b)
    return q_h, q_s


def greedy_policy(
    v: ValueRepresentation, params: GEParams, cfg: RewardConfig, b: float
) -> Action:
    """Argmax action at belief b; ties break toward harvesting."""
    q_h, q_s = q_values(v, params, cfg, b)
    return Action.HARVEST if q_h >= q_s else Action.SLEEP


def harvest_crossover(
    v: ValueRepresentation, params: GEParams, cfg: RewardConfig
) -> float:
    """Smallest belief at which harvesting is greedy-optimal under v.

    For the exact representation the sleeping action value is an upper
    envelope whose slopes all lie strictly below the harvesting slope,
    so the harvest-minus-sleep gap is concave and nondecreasing and the
    crossover is the largest pairwise intersection. The result may fall
    below q (harvest everywhere) or at +inf (harvest nowhere).
    """
    if isinstance(v, PiecewiseLinearValue):
        v_fail = v.value(params.q)
        v_good = v.value(v.hi)
        h = _harvest_line(v_fail, v_good, cfg)
        c = params.persistence
        best = -math.inf
        for ln in v.lines:
            a_s = cfg.gamma * (ln.alpha + ln.beta * params.q)
            b_s = cfg.gamma * ln.beta * c
            if h.beta - b_s <= 0.0:
                if a_s > h.alpha:
                    return math.inf
                continue
            best = max(best, (a_s - h.alpha) / (h.beta - b_s))
        return best

    # grid form: locate the sign change of the action-value gap and
    # refine it by linear interpolation between the bracketing points
    b = v.grid
    v_fail = v.values[0]
    v_good = v.values[-1]
    q_h = (cfg.r0 + cfg.r1) * b - cfg.r0 + cfg.gamma * ((1.0 - b) * v_fail + b * v_good)
    q_s = cfg.gamma * np.interp(params.q + params.persistence * b, v.grid, v.values)
    gaps = q_h - q_s
    nonneg = np.nonzero(gaps >= 0.0)[0]
    if len(nonneg) == 0:
        return math.inf
    i = int(nonneg[0])
    if i == 0:
        return float(v.grid[0])
    b0, b1 = float(v.grid[i - 1]), float(v.grid[i])
    g0, g1 = float(gaps[i - 1]), float(gaps[i])
    return b0 + (b1 - b0) * (-g0) / (g1 - g0)
