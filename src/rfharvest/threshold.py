"""Closed-form harvest/sleep policies of threshold type.

The optimal policy either never harvests or keeps harvesting after
every success and sleeps a fixed number of slots N after every
failure. ``optimal_sleep_time`` scans N over the closed-form values of
that policy, which ``beliefs`` states and derives. ``ThresholdPolicy``
is also the known-parameter policy the harness runs.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .beliefs import RewardConfig, _discount_terms, _never_wake_value, _policy_values, _sleep_count
from .gilbert_elliott import GEParams, is_valid_chain
from .value_iteration import VISettings, harvest_crossover, solve

__all__ = [
    "ThresholdPolicy",
    "PolicyValue",
    "LookupCell",
    "LookupTable",
    "sleep_time_from_threshold",
    "policy_value_linear_system",
    "optimal_sleep_time",
    "vi_threshold_policy",
    "STANDARD_PI_G",
    "STANDARD_T_B",
    "grid_axis",
    "build_lookup_table",
]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Either never harvest, or sleep ``sleep_slots`` after each failure.

    ``reset``, ``after_harvest`` and ``after_sleep`` follow the sequential
    policy protocol of ``harness``, which runs this rule as its
    fixed-threshold and always-harvest policies."""

    sleep_slots: int | None
    deterministic = True

    def __post_init__(self) -> None:
        if self.sleep_slots is not None and self.sleep_slots < 0:
            raise ValueError(f"sleep_slots must be nonnegative, got {self.sleep_slots}")

    @property
    def never_harvest(self) -> bool:
        return self.sleep_slots is None

    @classmethod
    def never(cls) -> "ThresholdPolicy":
        """Never wake after a failure. ``reset`` returns None, so an
        episode run from its start never harvests at all and earns 0,
        even where the scan's v_good (harvesting on from the post-success
        belief until the first failure) is positive."""
        return cls(sleep_slots=None)

    @classmethod
    def sleep(cls, n: int) -> "ThresholdPolicy":
        return cls(sleep_slots=int(n))

    def label(self) -> str:
        return "never" if self.never_harvest else str(self.sleep_slots)

    def reset(self, rng) -> int | None:
        return None if self.sleep_slots is None else 0

    def after_harvest(self, good: bool) -> int | None:
        return 0 if good else self.sleep_slots

    def after_sleep(self) -> None:
        pass


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

    A threshold at or above the stationary good probability is never
    reached after a failure, so the policy never harvests; the count
    itself comes from ``beliefs``, and ``value_iteration``'s policy
    steps read it off every iterate's crossover too.
    """
    return ThresholdPolicy(_sleep_count(bbar, params))


# Values within this relative distance of the best count as tied, and
# the smaller sleep count wins. The band sits above the rounding error
# of v_good (under 3e-15 relative against a 60-digit oracle on 4,500
# random solves near gamma = 1 and persistence = 1, away from values
# near 0) and below 1e-12, so a count that wins by more is never set
# aside.
_TIE_BAND = 1e-13


def policy_value_linear_system(n: int, params: GEParams, cfg: RewardConfig) -> PolicyValue:
    """Values of the sleep-n policy: the closed-form solution of the 3x3 system."""
    terms = _discount_terms(n, cfg.gamma)
    v_good, v_wake = _policy_values(terms, params, cfg)
    return PolicyValue(float(v_good), float(terms[3] * v_wake), float(v_wake))


def default_n_max(params: GEParams) -> int:
    """Largest sleep count worth scanning.

    Beyond the point where the wake-up belief is within 1e-12 of its
    stationary limit q / (p + q) the policy values are constant to
    machine precision, so the scan stops there (plus a small margin),
    and never past 100,000. Plain float arithmetic: it runs per chain.
    """
    n = math.ceil(math.log(1e-12 / (params.q / (params.p + params.q))) / params.log_persistence) + 8
    return 1 if n < 1 else 100_000 if n > 100_000 else n


# One prefix of the discount terms, those of the counts 0..len-1 for the
# last gamma scanned, read-only since every scan under that gamma slices
# it. It holds 4096 counts at first (4 x 4096 floats, 128 KB) and is
# rebuilt, the old one dropped first, only when a scan needs more counts;
# ``default_n_max`` caps it at 100,001 counts (3.2 MB). _CACHED_COUNTS is
# also the most counts per chain that a batch of chains holds.
_CACHED_COUNTS = 4096
_prefix: dict[float, tuple[np.ndarray, ...]] = {}


def _discount_prefix(size: int, gamma: float) -> tuple[np.ndarray, ...]:
    """``_discount_terms`` of the counts 0..size-1 or more under gamma."""
    if gamma not in _prefix or len(_prefix[gamma][0]) < size:
        _prefix.clear()
        terms = _discount_terms(np.arange(max(size, _CACHED_COUNTS)), gamma)
        for t in terms:
            t.setflags(write=False)
        _prefix[gamma] = terms
    return _prefix[gamma]


def _segment_picks(v_good: np.ndarray, v_wake: np.ndarray, starts: np.ndarray, sizes: list[int]):
    """The pick rule of ``optimal_sleep_time`` over scans laid end to end,
    each segment at ``starts`` and ``sizes`` long: whether it never
    harvests (the top of its v_wake is negative), and the index of the
    first count whose v_good lies within ``_TIE_BAND`` of its top. A NaN
    band (a NaN or infinite top) has no count below it, so the segment's
    first count is picked, as argmax picks on an all-False mask."""
    never = np.maximum.reduceat(v_wake, starts) < 0.0
    # a few Python floats cost less than three ufunc calls on them
    band = [top - _TIE_BAND * abs(top) for top in np.maximum.reduceat(v_good, starts).tolist()]
    below = v_good < (band[0] if len(sizes) == 1 else np.repeat(band, sizes))
    pick = np.minimum.reduceat(np.where(below, len(v_good), np.arange(len(v_good))), starts)
    return never, pick


def _scan(chains: Sequence[GEParams], cfg: RewardConfig) -> list[tuple[ThresholdPolicy, PolicyValue]]:
    """``optimal_sleep_time`` of each chain, from one pass of the closed
    form over the counts 0..``default_n_max`` of every chain, laid end to
    end, and one ``_segment_picks`` over them all.

    Every operation is elementwise or works within one chain's segment
    of the counts, so each chain gets the bits a scan of it alone gives.
    A batch gathers its discount terms by one count-index array; one
    chain slices them and broadcasts its scalars, at less cost. Only the
    picked counts' values become floats, v_fail = gamma^n v_wake there.
    """
    if not chains:
        return []
    sizes = [default_n_max(c) + 1 for c in chains]
    if len(chains) > 1 and max(sizes) > _CACHED_COUNTS:
        # a chain past 4096 counts is scanned alone, so that a batch
        # holds at most 4096 counts per chain
        alone = {i: _scan([c], cfg)[0] for i, (c, size) in enumerate(zip(chains, sizes)) if size > _CACHED_COUNTS}
        batch = iter(_scan([c for i, c in enumerate(chains) if i not in alone], cfg))
        return [alone[i] if i in alone else next(batch) for i in range(len(chains))]
    prefix = _discount_prefix(max(sizes), cfg.gamma)
    starts = np.fromiter(itertools.accumulate(sizes[:-1], initial=0), np.intp, len(chains))
    total = sum(sizes)
    if len(chains) == 1:
        terms = [t[:total] for t in prefix[:3]]
        params = chains[0]
    else:
        count = np.arange(total) - np.repeat(starts, sizes)
        terms = [t[count] for t in prefix[:3]]
        fields = [[c.p for c in chains], [c.q for c in chains], [c.log_persistence for c in chains]]
        p, q, log_c = np.repeat(fields, sizes, axis=1)  # each chain's over its counts
        params = SimpleNamespace(p=p, q=q, log_persistence=log_c)
    v_good, v_wake = _policy_values(terms, params, cfg)
    never, pick = _segment_picks(v_good, v_wake, starts, sizes)
    results = []
    for chain, never_wakes, i, start in zip(chains, never.tolist(), pick.tolist(), starts.tolist()):
        if never_wakes:
            # after a failure sleeping forever earns 0; after a success
            # harvesting on until the first failure may still pay
            y = max(0.0, _never_wake_value(chain, cfg))
            results.append((ThresholdPolicy.never(), PolicyValue(v_good=y, v_fail=0.0, v_wake=0.0)))
        else:
            value = PolicyValue(float(v_good[i]), float(prefix[3][i - start] * v_wake[i]), float(v_wake[i]))
            results.append((ThresholdPolicy.sleep(i - start), value))
    return results


def optimal_sleep_time(params: GEParams, cfg: RewardConfig) -> tuple[ThresholdPolicy, PolicyValue]:
    """Best sleep-after-failure count by exhaustive scan.

    The scan maximizes the post-success value over n = 0..n_max
    (``default_n_max``), breaking ties (values within ``_TIE_BAND`` of
    the best, relatively) toward the smaller count. Never waking after
    a failure is optimal exactly when no candidate achieves a positive
    value at its wake-up belief: the wake-up belief is the only one the
    policy reaches from below the threshold, so a nonpositive value
    there means sleeping forever (worth 0) is at least as good from the
    post-failure belief q. It need not be at the post-success belief
    1 - p: harvesting there until the first failure is worth
    y = (r1 (1-p) - r0 p) / (1 - gamma + gamma p), so a "never" result
    carries v_good = max(0, y) and v_fail = v_wake = 0.

    This is the scan ``build_lookup_table`` runs over a batch of chains,
    here over one, with the same pick rule (``_segment_picks``) for
    both. The terms that depend only on n and gamma (n + 1, 1 - G,
    G = gamma^(n+1) and gamma^n) are sliced from one prefix of them kept
    for the last gamma scanned, which a scan past its length rebuilds to
    its n_max.
    """
    return _scan([params], cfg)[0]


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
    policy: ThresholdPolicy | None
    v_good: float | None

    @property
    def valid(self) -> bool:
        """Whether the cell's chain satisfies ``1 - p > q``: only those have a policy."""
        return self.policy is not None


def _nearest_index(axis: tuple[float, ...], x: float) -> int:
    """Index of the ascending axis value nearest to x, the first one on a tie.

    Same choice as ``np.argmin(np.abs(axis - x))``: a binary search
    finds the two neighbours of x, and on equal distances the search
    walks left, since the distances only grow (or stay equal) away
    from x.
    """
    i = bisect.bisect_left(axis, x)
    if i == len(axis) or (i > 0 and x - axis[i - 1] <= axis[i] - x):
        i -= 1
        while i > 0 and x - axis[i - 1] == x - axis[i]:
            i -= 1
    return i


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
    pi_g outer and t_b inner, both ascending. ``cfg`` is the reward the
    table was built for.
    """

    pi_g_axis: tuple[float, ...]
    t_b_axis: tuple[float, ...]
    cells: tuple[LookupCell, ...]
    cfg: RewardConfig

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
        return cell.policy

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
            "reward": {"r1": self.cfg.r1, "r0": self.cfg.r0, "gamma": self.cfg.gamma},
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
        raises ValueError naming the fault: the reward values must be
        numbers that ``RewardConfig`` takes, the axes must be nonempty
        and strictly ascending, and the cells must follow them in
        row-major order with p and q finite numbers, valid true exactly
        when (p, q) is a valid chain (``is_valid_chain``), v_good a number
        on valid cells and null on invalid ones, and each valid cell with
        its policy: never_harvest true or false and, unless true,
        sleep_slots a nonnegative integer.
        """
        if not isinstance(data, dict) or data.get("schema") != "sleep-lookup-table/1":
            raise ValueError("not a sleep lookup table document")
        _require_keys(data, ("reward", "pi_g_axis", "t_b_axis", "cells"), "table document")
        reward = data["reward"]
        _require_keys(reward, ("r1", "r0", "gamma"), "reward")
        for key in ("r1", "r0", "gamma"):
            if type(reward[key]) not in (int, float):
                raise ValueError(f"reward has {key} {reward[key]!r}, not a number")
        cfg = RewardConfig(r1=reward["r1"], r0=reward["r0"], gamma=reward["gamma"])
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
            if not isinstance(c["valid"], bool):
                raise ValueError(f"{where} has valid {c['valid']!r}, not true or false")
            for key in ("p", "q"):
                if type(c[key]) not in (int, float) or not math.isfinite(c[key]):
                    raise ValueError(f"{where} has {key} {c[key]!r}, not a finite number")
            if c["valid"] != is_valid_chain(c["p"], c["q"]):
                flag, verdict = ("true", "is not") if c["valid"] else ("false", "is")
                raise ValueError(f"{where} has valid {flag}, but (p, q) = ({c['p']}, {c['q']}) {verdict} a valid chain")
            if not (type(c["v_good"]) in (int, float) if c["valid"] else c["v_good"] is None):
                raise ValueError(f"{where} has v_good {c['v_good']!r}, not {'a number' if c['valid'] else 'null'}")
            policy = None
            if c["valid"]:
                pol = c["policy"]
                _require_keys(pol, ("never_harvest", "sleep_slots"), f"policy of valid {where}")
                never, slots = pol["never_harvest"], pol["sleep_slots"]
                if not isinstance(never, bool):
                    raise ValueError(f"{where} has never_harvest {never!r}, not true or false")
                if not never and (type(slots) is not int or slots < 0):
                    raise ValueError(f"{where} has sleep_slots {slots!r}, not a nonnegative integer")
                policy = ThresholdPolicy.never() if never else ThresholdPolicy(slots)
            cells.append(
                LookupCell(
                    pi_g=c["pi_g"],
                    t_b=c["t_b"],
                    p=c["p"],
                    q=c["q"],
                    policy=policy,
                    v_good=c["v_good"],
                )
            )
        return cls(pi_g_axis=tuple(pi_g_axis), t_b_axis=tuple(t_b_axis), cells=tuple(cells), cfg=cfg)

    @classmethod
    def load_json(cls, stream: io.TextIOBase) -> "LookupTable":
        return cls.from_json_dict(json.load(stream))


# The standard (pi_g, t_b) grid, (lo, hi, steps) per axis: the default
# grid of ``rfharvest table`` and the one the learning comparison plans on.
STANDARD_PI_G = (0.05, 0.95, 20)
STANDARD_T_B = (1.1, 20.0, 20)


def grid_axis(lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` evenly spaced values from lo to hi, both included."""
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def build_lookup_table(
    pi_g_axis: Sequence[float],
    t_b_axis: Sequence[float],
    cfg: RewardConfig,
) -> LookupTable:
    """Optimal policy per (pi_g, t_b) cell; infeasible cells flagged.

    Both axes must be strictly ascending, the order ``LookupTable``
    documents and ``LookupTable.from_json_dict`` checks. The valid
    cells of each pi_g row are scanned in one batch, the scan of
    ``optimal_sleep_time`` over all their chains at once, with the
    discount-term prefix and the pick rule it uses; each cell gets the
    bits a scan of its chain alone gives. A batch holds one row, never
    the whole grid: a row of the standard grid spans about 2,700 counts,
    so its working arrays (tens of KB each) stay in a core's cache,
    while one batch over all 55,000 counts of that grid ran about 25%
    slower on a 2-vCPU Xeon VM with 2 MB of L2 per core.
    """
    for pi_g in pi_g_axis:
        if not 0.0 < pi_g < 1.0:
            raise ValueError(f"pi_g axis values must lie in (0, 1), got {pi_g}")
    for t_b in t_b_axis:
        if not t_b > 1.0:
            raise ValueError(f"t_b axis values must exceed 1, got {t_b}")
    _check_axis("pi_g_axis", pi_g_axis)
    _check_axis("t_b_axis", t_b_axis)
    cells = []
    for pi_g in pi_g_axis:
        row = [(t_b, 1.0 / t_b) for t_b in t_b_axis]
        row = [(t_b, q * (1.0 - pi_g) / pi_g, q) for t_b, q in row]
        best = iter(_scan([GEParams(p=p, q=q) for _, p, q in row if is_valid_chain(p, q)], cfg))
        for t_b, p, q in row:
            if is_valid_chain(p, q):
                policy, value = next(best)
                cell = LookupCell(pi_g=pi_g, t_b=t_b, p=p, q=q, policy=policy, v_good=value.v_good)
            else:
                cell = LookupCell(pi_g=pi_g, t_b=t_b, p=p, q=q, policy=None, v_good=None)
            cells.append(cell)
    return LookupTable(
        pi_g_axis=tuple(float(x) for x in pi_g_axis),
        t_b_axis=tuple(float(x) for x in t_b_axis),
        cells=tuple(cells),
        cfg=cfg,
    )
