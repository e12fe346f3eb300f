"""Closed-form harvest/sleep policies of threshold type.

The optimal policy either never harvests or keeps harvesting after
every success and sleeps a fixed number of slots N after every
failure. For a candidate sleep count n the three beliefs the policy
visits (q after a failure, 1-p after a success, and the wake-up
belief b' = q (1 - c^(n+1)) / (p+q)) satisfy a 3x3 linear system:

    V(q)   = gamma^n V(b')
    V(1-p) = (1-p)(r0+r1) - r0 + gamma p V(q) + gamma (1-p) V(1-p)
    V(b')  = b'(r0+r1) - r0 + gamma^(n+1) (1-b') V(b') + gamma b' V(1-p)

Solving it gives V(1-p) as a ratio of two closed-form polynomials in
gamma^(n+1); the scan over n below uses that ratio (it is algebraically
identical to the system solution, and the test suite asserts the
agreement), while reported policy values always come from the linear
system itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .beliefs import RewardConfig, belief_after_failure_and_sleep
from .gilbert_elliott import GEParams, is_valid_chain, stationary
from .value_iteration import VISettings, harvest_crossover, solve

__all__ = [
    "ThresholdPolicy",
    "PolicyValue",
    "LookupCell",
    "LookupTable",
    "SingularSystem",
    "sleep_time_from_threshold",
    "policy_value_linear_system",
    "optimal_sleep_time",
    "vi_threshold_policy",
    "build_lookup_table",
]


class SingularSystem(RuntimeError):
    """Raised when the policy-value system is numerically singular."""


@dataclass(frozen=True)
class ThresholdPolicy:
    """Either never harvest, or sleep ``sleep_slots`` after each failure."""

    sleep_slots: int | None

    def __post_init__(self) -> None:
        if self.sleep_slots is not None and self.sleep_slots < 0:
            raise ValueError("sleep_slots must be nonnegative")

    @property
    def never_harvest(self) -> bool:
        return self.sleep_slots is None

    @classmethod
    def never(cls) -> "ThresholdPolicy":
        return cls(sleep_slots=None)

    @classmethod
    def sleep(cls, n: int) -> "ThresholdPolicy":
        return cls(sleep_slots=int(n))

    def label(self) -> str:
        return "never" if self.never_harvest else str(self.sleep_slots)


@dataclass(frozen=True)
class PolicyValue:
    """Policy values at the three recurrent beliefs.

    v_fail = gamma^n * v_wake holds by construction (first system row).
    """

    v_good: float
    v_fail: float
    v_wake: float


def sleep_time_from_threshold(bbar: float, params: GEParams) -> ThresholdPolicy:
    """Sleep count implied by a harvest threshold on beliefs.

    After a failure the belief climbs toward the stationary good
    probability, so a threshold at or above it is never reached and
    the policy never harvests. Otherwise the count is

        N = ceil(log_c ((q - (p+q) bbar) / q)) - 1,  c = 1 - p - q,

    clamped at zero (thresholds at or below q need no sleeping).
    """
    if math.isnan(bbar):
        raise ValueError("threshold must be a number")
    if bbar >= stationary(params).good:
        return ThresholdPolicy.never()
    if bbar <= params.q:
        return ThresholdPolicy.sleep(0)
    c = params.persistence
    arg = (params.q - (params.p + params.q) * bbar) / params.q
    # a wake-up belief exactly on the threshold counts as clearing it;
    # the epsilon absorbs float noise in the log at such boundaries
    n = math.ceil(math.log(arg) / math.log(c) - 1e-9) - 1
    return ThresholdPolicy.sleep(max(0, n))


def policy_value_linear_system(n: int, params: GEParams, cfg: RewardConfig) -> PolicyValue:
    """Solve the 3x3 system for the sleep-n policy values exactly."""
    if n < 0:
        raise ValueError(f"sleep count must be nonnegative, got {n}")
    g = cfg.gamma
    p = params.p
    b_wake = belief_after_failure_and_sleep(n, params)
    rs = cfg.r0 + cfg.r1
    a = np.array(
        [
            [1.0, 0.0, -(g**n)],
            [-g * p, 1.0 - g * (1.0 - p), 0.0],
            [0.0, -g * b_wake, 1.0 - g ** (n + 1) * (1.0 - b_wake)],
        ]
    )
    rhs = np.array([0.0, (1.0 - p) * rs - cfg.r0, b_wake * rs - cfg.r0])
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"policy-value system singular for n={n}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem(f"policy-value system ill-conditioned for n={n}")
    return PolicyValue(v_good=float(x[1]), v_fail=float(x[0]), v_wake=float(x[2]))


def default_n_max(params: GEParams) -> int:
    """Largest sleep count worth scanning.

    Beyond the point where the wake-up belief is within 1e-12 of its
    stationary limit the policy values are constant to machine
    precision, so the scan stops there (plus a small margin).
    """
    c = params.persistence
    pi_g = stationary(params).good
    n_conv = int(math.ceil(math.log(1e-12 / pi_g) / math.log(c)))
    return min(100_000, max(1, n_conv + 8))


def _scan_policy_values(
    params: GEParams, cfg: RewardConfig, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(v_good, v_wake) for all n in 0..n_max via the closed-form ratio."""
    n = np.arange(n_max + 1)
    g = cfg.gamma
    p = params.p
    c = params.persistence
    rs = cfg.r0 + cfg.r1
    b_wake = params.q * (1.0 - c ** (n + 1)) / (params.p + params.q)
    g_n1 = g ** (n + 1.0)
    num = g_n1 * cfg.r1 * (b_wake - 1.0 + p) + cfg.r1 - p * rs
    den = g_n1 * (b_wake * (1.0 - g) - (1.0 - g + g * p)) + 1.0 - g + g * p
    v_good = num / den
    v_wake = (b_wake * rs - cfg.r0 + g * b_wake * v_good) / (1.0 - g_n1 * (1.0 - b_wake))
    return v_good, v_wake


def optimal_sleep_time(params: GEParams, cfg: RewardConfig) -> tuple[ThresholdPolicy, PolicyValue]:
    """Best sleep-after-failure count by exhaustive scan.

    The scan maximizes the post-success value over n, breaking ties
    toward the smaller count. Never harvesting is optimal exactly when
    no candidate achieves a positive value at its wake-up belief: the
    wake-up belief is the only one the policy reaches from below the
    threshold, so a nonpositive value there means sleeping forever
    (worth 0) is at least as good everywhere the policy could start.
    """
    n_max = default_n_max(params)
    v_good, v_wake = _scan_policy_values(params, cfg, n_max)
    if float(np.max(v_wake)) < 0.0:
        # never harvesting earns exactly zero from every belief
        return ThresholdPolicy.never(), PolicyValue(v_good=0.0, v_fail=0.0, v_wake=0.0)

    # re-anchor the argmax on the authoritative linear system around the
    # scan winner (plus the always-harvest candidate n = 0)
    scan_best = int(np.argmax(v_good))
    candidates = sorted({0, *range(max(0, scan_best - 2), min(n_max, scan_best + 2) + 1)})
    values = {n: policy_value_linear_system(n, params, cfg) for n in candidates}
    best = min(candidates, key=lambda n: (-values[n].v_good, n))
    return ThresholdPolicy.sleep(best), values[best]


def vi_threshold_policy(
    params: GEParams,
    cfg: RewardConfig,
    settings: VISettings | None = None,
) -> tuple[ThresholdPolicy, float]:
    """Sleep count implied by the value-iteration greedy crossover."""
    result = solve(params, cfg, settings=settings)
    bbar = harvest_crossover(result.value, params, cfg)
    return sleep_time_from_threshold(bbar, params), bbar


@dataclass(frozen=True)
class LookupCell:
    pi_g: float
    t_b: float
    p: float
    q: float
    valid: bool
    policy: ThresholdPolicy | None
    v_good: float | None


def _nearest_index(axis: tuple[float, ...], x: float) -> int:
    """Index of the axis value nearest to x, the first one on a tie.

    Same choice as ``np.argmin(np.abs(axis - x))``, without building
    arrays for a lookup that runs once per planned sleep.
    """
    return min(range(len(axis)), key=lambda i: abs(axis[i] - x))


def _check_axis(name: str, axis: Sequence[float]) -> None:
    if len(axis) == 0 or not all(a < b for a, b in zip(axis, axis[1:])):
        raise ValueError(f"{name} must be nonempty and strictly ascending")


def _require_keys(obj, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")


@dataclass(frozen=True)
class LookupTable:
    """Optimal sleep counts over a (pi_g, t_b) grid.

    Cells whose implied (p, q) violate the positive-correlation
    constraint are retained but flagged invalid so emitted tables show
    the infeasible region explicitly. Rows are in row-major order,
    pi_g outer and t_b inner, both ascending.
    """

    pi_g_axis: tuple[float, ...]
    t_b_axis: tuple[float, ...]
    cells: tuple[LookupCell, ...]
    r1: float
    r0: float
    gamma: float

    CSV_HEADER = ("pi_g", "t_b", "p", "q", "n_or_never", "v_good")

    def cell(self, i: int, j: int) -> LookupCell:
        return self.cells[i * len(self.t_b_axis) + j]

    def lookup(self, p: float, q: float) -> ThresholdPolicy | None:
        """Policy of the nearest cell to the chain (p, q), or None.

        None signals a miss: the target violates the model constraint
        or the nearest cell is invalid, in which case callers should
        compute the policy directly.
        """
        if not is_valid_chain(p, q):
            return None
        pi_g = q / (p + q)
        t_b = 1.0 / q
        cell = self.cell(_nearest_index(self.pi_g_axis, pi_g), _nearest_index(self.t_b_axis, t_b))
        return cell.policy if cell.valid else None

    def write_csv(self, stream: io.TextIOBase) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for cell in self.cells:
            writer.writerow(
                [
                    repr(cell.pi_g),
                    repr(cell.t_b),
                    repr(cell.p),
                    repr(cell.q),
                    "invalid" if not cell.valid else cell.policy.label(),
                    "" if cell.v_good is None else repr(cell.v_good),
                ]
            )

    def to_json_dict(self) -> dict:
        return {
            "schema": "sleep-lookup-table/1",
            "reward": {"r1": self.r1, "r0": self.r0, "gamma": self.gamma},
            "pi_g_axis": list(self.pi_g_axis),
            "t_b_axis": list(self.t_b_axis),
            "cells": [
                {
                    "pi_g": c.pi_g,
                    "t_b": c.t_b,
                    "p": c.p,
                    "q": c.q,
                    "valid": c.valid,
                    "policy": None
                    if not c.valid
                    else {"never_harvest": c.policy.never_harvest, "sleep_slots": c.policy.sleep_slots},
                    "v_good": c.v_good,
                }
                for c in self.cells
            ],
        }

    def dump_json(self, stream: io.TextIOBase) -> None:
        json.dump(self.to_json_dict(), stream, indent=1, sort_keys=True)
        stream.write("\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "LookupTable":
        """Table from its JSON document.

        The document's shape is checked first, and a malformed one
        raises ValueError naming the fault: the axes must be nonempty
        and strictly ascending, and the cells must follow them in
        row-major order, each valid cell with its policy.
        """
        if not isinstance(data, dict) or data.get("schema") != "sleep-lookup-table/1":
            raise ValueError("not a sleep lookup table document")
        _require_keys(data, ("reward", "pi_g_axis", "t_b_axis", "cells"), "table document")
        _require_keys(data["reward"], ("r1", "r0", "gamma"), "reward")
        pi_g_axis, t_b_axis = data["pi_g_axis"], data["t_b_axis"]
        for name, axis in (("pi_g_axis", pi_g_axis), ("t_b_axis", t_b_axis)):
            if not isinstance(axis, list):
                raise ValueError(f"{name} must be a list")
            _check_axis(name, axis)
        size = len(pi_g_axis) * len(t_b_axis)
        if not isinstance(data["cells"], list) or len(data["cells"]) != size:
            raise ValueError(f"cells must be a list of {len(pi_g_axis)} x {len(t_b_axis)} = {size} cells")
        cells = []
        for index, c in enumerate(data["cells"]):
            where = f"cell {index}"
            _require_keys(c, ("pi_g", "t_b", "p", "q", "valid", "policy", "v_good"), where)
            pair = (pi_g_axis[index // len(t_b_axis)], t_b_axis[index % len(t_b_axis)])
            if (c["pi_g"], c["t_b"]) != pair:
                raise ValueError(f"{where} has (pi_g, t_b) = ({c['pi_g']}, {c['t_b']}), not its axis pair {pair}")
            policy = None
            if c["valid"]:
                pol = c["policy"]
                _require_keys(pol, ("never_harvest", "sleep_slots"), f"policy of valid {where}")
                policy = (
                    ThresholdPolicy.never()
                    if pol["never_harvest"]
                    else ThresholdPolicy.sleep(pol["sleep_slots"])
                )
            cells.append(
                LookupCell(
                    pi_g=c["pi_g"],
                    t_b=c["t_b"],
                    p=c["p"],
                    q=c["q"],
                    valid=c["valid"],
                    policy=policy,
                    v_good=c["v_good"],
                )
            )
        reward = data["reward"]
        return cls(
            pi_g_axis=tuple(pi_g_axis),
            t_b_axis=tuple(t_b_axis),
            cells=tuple(cells),
            r1=reward["r1"],
            r0=reward["r0"],
            gamma=reward["gamma"],
        )

    @classmethod
    def load_json(cls, stream: io.TextIOBase) -> "LookupTable":
        return cls.from_json_dict(json.load(stream))


def build_lookup_table(
    pi_g_axis: Sequence[float],
    t_b_axis: Sequence[float],
    cfg: RewardConfig,
) -> LookupTable:
    """Optimal policy per (pi_g, t_b) cell; infeasible cells flagged.

    Both axes must be strictly ascending, the order ``LookupTable``
    documents and ``LookupTable.from_json_dict`` checks.
    """
    _check_axis("pi_g_axis", pi_g_axis)
    _check_axis("t_b_axis", t_b_axis)
    for pi_g in pi_g_axis:
        if not 0.0 < pi_g < 1.0:
            raise ValueError(f"pi_g axis values must lie in (0, 1), got {pi_g}")
    for t_b in t_b_axis:
        if not t_b > 1.0:
            raise ValueError(f"t_b axis values must exceed 1, got {t_b}")
    cells = []
    for pi_g in pi_g_axis:
        for t_b in t_b_axis:
            q = 1.0 / t_b
            p = q * (1.0 - pi_g) / pi_g
            if not is_valid_chain(p, q):
                cells.append(
                    LookupCell(pi_g=pi_g, t_b=t_b, p=p, q=q, valid=False, policy=None, v_good=None)
                )
                continue
            params = GEParams(p=p, q=q)
            policy, value = optimal_sleep_time(params, cfg)
            cells.append(
                LookupCell(
                    pi_g=pi_g,
                    t_b=t_b,
                    p=p,
                    q=q,
                    valid=True,
                    policy=policy,
                    v_good=value.v_good,
                )
            )
    return LookupTable(
        pi_g_axis=tuple(float(x) for x in pi_g_axis),
        t_b_axis=tuple(float(x) for x in t_b_axis),
        cells=tuple(cells),
        r1=cfg.r1,
        r0=cfg.r0,
        gamma=cfg.gamma,
    )
