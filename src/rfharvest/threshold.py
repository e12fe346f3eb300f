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
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .beliefs import RewardConfig, _discount_terms, _never_wake_value, _policy_values, _wake_belief
from .gilbert_elliott import GEParams, _log_persistence, burst_escape_probabilities, is_valid_chain
from .value_iteration import VISettings, solve

__all__ = [
    "ThresholdPolicy",
    "PolicyValue",
    "LookupCell",
    "LookupTable",
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
    """Either never harvest (``sleep_slots`` None), or sleep
    ``sleep_slots`` after each failure.

    ``start``, ``after_harvest`` and ``after_sleep`` follow the policy
    protocol of ``harness``, with None as the group state; the harness
    runs this rule as its fixed-threshold and always-harvest policies.
    A never policy sleeps from ``start`` on, so an episode run from its
    start never harvests at all and earns 0, even where the scan's
    v_good (harvesting on from the post-success belief until the first
    failure) is positive."""

    sleep_slots: int | None
    deterministic = True

    def __post_init__(self) -> None:
        if self.sleep_slots is not None and self.sleep_slots < 0:
            raise ValueError(f"sleep_slots must be nonnegative, got {self.sleep_slots}")

    @property
    def never_harvest(self) -> bool:
        return self.sleep_slots is None

    def label(self) -> str:
        return "never" if self.never_harvest else str(self.sleep_slots)

    def start(self, rngs) -> tuple[None, int | None]:
        return None, None if self.sleep_slots is None else 0

    def after_harvest(self, state, good: bool) -> tuple[None, int | None]:
        return None, 0 if good else self.sleep_slots

    def after_sleep(self, state) -> None:
        return None


class PolicyValue(NamedTuple):
    """Policy values at the three recurrent beliefs, an immutable row.

    v_fail = gamma^n * v_wake holds by construction (first system row).
    """

    v_good: float
    v_fail: float
    v_wake: float


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
    """Largest sleep count a scan prices: its hard cap.

    Beyond the point where the wake-up belief is within 1e-12 of its
    stationary limit q / (p + q) the policy values are constant to
    machine precision, so the cap sits there (plus a small margin), and
    never past 100,000. It ignores gamma; where the discount settles the
    race sooner, the scan's stop bound (``_later_bound``) ends it
    earlier. Plain float arithmetic: it runs per chain. On chains near
    the float floor the ratio of logs leaves the float range, so it is
    clamped, to the side of the cap it lies on, before it is rounded.
    """
    x = math.log(1e-12 / (params.q / (params.p + params.q))) / params.log_persistence
    n = math.ceil(min(max(x, -8.0), 100_000.0)) + 8
    return 1 if n < 1 else 100_000 if n > 100_000 else n


# One prefix of the discount terms, those of the counts 0..len-1 for the
# last gamma scanned, read-only since every scan under that gamma slices
# it. It holds 4096 counts at first (4 x 4096 floats, 128 KB) and is
# rebuilt, the old one dropped first, only when a scan reaches past it,
# to the cap of the longest chain still scanning; ``default_n_max`` caps
# it at 100,001 counts (3.2 MB).
_CACHED_COUNTS = 4096
_prefix: dict[float, tuple[np.ndarray, ...]] = {}


def _discount_prefix(size: int, gamma: float, grow_to: int = 0) -> tuple[np.ndarray, ...]:
    """``_discount_terms`` of the counts 0..size-1 or more under gamma; a
    prefix too short for them is rebuilt to ``grow_to`` counts, if more."""
    if gamma not in _prefix or len(_prefix[gamma][0]) < size:
        _prefix.clear()
        terms = _discount_terms(np.arange(max(size, grow_to, _CACHED_COUNTS)), gamma)
        for t in terms:
            t.setflags(write=False)
        _prefix[gamma] = terms
    return _prefix[gamma]


def _band(top):
    """The lowest v_good that ties ``top``: within ``_TIE_BAND`` of it."""
    return top - _TIE_BAND * np.abs(top)


def _ties(v_good: np.ndarray, top):
    """The pick rule of ``optimal_sleep_time`` along the last axis: the
    counts whose v_good ties the row's ``top`` (``_band``), of which the
    first is picked. A NaN band (a NaN or infinite top) has no count
    below it, so then the first count is picked."""
    return ~(v_good < _band(top)[..., None])


# The scan's rounds: the first prices the counts 0..31 of every chain,
# and each later one, for the chains not yet retired, twice as many
# counts as the round before, at most _CACHED_COUNTS per chain and about
# _ROUND_COUNTS in all; a batch takes at most _ROUND_COUNTS // _FIRST_ROUND
# chains, so its first round holds no more. Rows kept for the final pick
# are thinned once they pass _KEPT_COUNTS counts (1 MB per value array).
_FIRST_ROUND = 32
_ROUND_COUNTS = 1 << 16
_KEPT_COUNTS = 1 << 17

# A chain retires once its bound on every later count lies below its top
# by this share of the values' term scale: the rounding errors of a value
# and of the bound stay under 1e-14 of that scale (the 60-digit oracle's
# tests), and a later count must not even tie the top.
_STOP_MARGIN = 1e-12


def _chain_fields(chains: Sequence[GEParams], sizes: Sequence[int], cfg: RewardConfig) -> np.ndarray:
    """Rows p, q, log(1 - p - q), the wake-up belief at the chain's last
    count (``sizes`` - 1, its ``default_n_max``), y and y's term scale
    (r1 (1-p) + r0 p) / (1 - gamma + gamma p), a column per chain."""
    g, r1, r0 = cfg.gamma, cfg.r1, cfg.r0
    p = np.array([c.p for c in chains])
    q = np.array([c.q for c in chains])
    y_den = (1.0 - g) + g * p
    log_c = np.array([c.log_persistence for c in chains])
    b_cap = _wake_belief(np.array(sizes, dtype=float), SimpleNamespace(p=p, q=q, log_persistence=log_c))
    return np.array([p, q, log_c, b_cap, (r1 * (1.0 - p) - r0 * p) / y_den, (r1 * (1.0 - p) + r0 * p) / y_den])


def _later_bound(v_m, big_g: float, rest: float, fields: np.ndarray, cfg: RewardConfig):
    """(upper, margin, never) from count m on, per chain: ``v_m`` is
    v_good at m, ``big_g`` and ``rest`` are G_m and 1 - G_m, and
    ``fields`` the chains' ``_chain_fields``.

    For m <= n <= n_max, the chain's cap, G = gamma^(n+1) lies in
    (0, G_m] and the wake-up belief b in [b_m, b_cap], its value at the
    cap (b rises with n toward q / (p + q), which it never reaches).
    v_good is a ratio of affine functions of G for fixed b and of b for
    fixed G, with a positive denominator, so it is monotone in each on
    that box (Charnes & Cooper 1962) and its largest value sits at a
    corner: y (both corners at G = 0), v_good(m) at (G_m, b_m), or
    v(G_m, b_cap). ``upper`` is the largest of the three. ``margin`` is
    ``_STOP_MARGIN`` of the largest term scale (the value with every
    numerator term taken positive) over the wider box b in [q, b_cap],
    found at its corners the same way. ``never`` says whether every
    later v_wake is negative: its numerator b (r0 + r1) - r0 +
    gamma b v_good is at most b_cap (r0 + r1) - r0 +
    gamma b_cap max(upper + margin, 0), and that bound must lie below
    the rounding of the numerator's terms.
    """
    g, r1, r0 = cfg.gamma, cfg.r1, cfg.r0
    d = 1.0 - g
    p, q, _, b_cap, y, y_scale = fields
    gain = r1 * (1.0 - p) * rest
    cost = p * r0
    den = rest * (d + g * p)
    den_cap = den + big_g * b_cap * d
    v_cap = (gain + big_g * r1 * b_cap - cost) / den_cap
    upper = np.maximum(np.maximum(y, v_m), v_cap)
    scale_cap = (gain + big_g * r1 * b_cap + cost) / den_cap
    scale_q = (gain + big_g * r1 * q + cost) / (den + big_g * q * d)
    scale = np.maximum(np.maximum(y_scale, scale_q), scale_cap)
    margin = _STOP_MARGIN * scale
    wake = b_cap * (r0 + r1) - r0 + g * b_cap * np.maximum(upper + margin, 0.0)
    never = wake < -_STOP_MARGIN * (b_cap * (r0 + r1) + r0 + g * b_cap * scale)
    return upper, margin, never


def _settled(top, wake_top, upper, margin, never):
    """Whether no later count can change a chain's result, from its
    running tops of v_good and v_wake and its ``_later_bound``.

    Either no scanned v_wake is nonnegative (or NaN) and the bound proves
    no later one is, so the chain never harvests and its pick does not
    matter; or one is, and the bound lies more than its margin below a
    finite top, so no later count can even tie the top and the pick, the
    first count that does, is among those scanned. A NaN or infinite top
    settles nothing.
    """
    harvests = ~(wake_top < 0.0)
    return (never & ~harvests) | (harvests & np.isfinite(top) & (upper < top - margin))


def _rounds(chains: Sequence[GEParams], sizes: list[int], cfg: RewardConfig):
    """The scan of ``_scan`` in rounds, each chain stopped once its
    result is certain.

    Each round prices the same counts of every chain still scanning, as a
    (chains x counts) block whose terms are one slice of the prefix
    broadcast against a column of each chain's fields; counts past a
    chain's ``default_n_max`` are masked out. A chain retires when its
    counts run out or its running tops of v_good and v_wake and its
    ``_later_bound`` from the round's last count have ``_settled`` it.
    The pick, the first count that ties the final top, lies in a row that
    raised its chain's running top and still reaches its band, so only
    those rows (and the first round's) are kept for the final pick.

    Returns, per chain, whether it never harvests, the picked count and
    (v_good, v_fail, v_wake) there.
    """
    g = cfg.gamma
    fields = _chain_fields(chains, sizes, cfg)
    size = np.array(sizes)
    top = np.full(len(chains), -np.inf)
    wake_top = top.copy()
    kept = []
    active = np.arange(len(chains))
    lo, length = 0, _FIRST_ROUND
    while active.size:
        longest = int(size[active].max())
        length = min(length, longest - lo)
        prefix = _discount_prefix(lo + length, g, grow_to=longest)
        terms = [t[lo : lo + length] for t in prefix[:3]]
        chains_left = fields[:, active]
        p, q, log_c = chains_left[:3, :, None]
        column = SimpleNamespace(p=p, q=q, log_persistence=log_c)
        v_good, v_wake = _policy_values(terms, column, cfg)
        last = size[active] <= lo + length
        if last.any():
            beyond = np.arange(lo, lo + length) >= size[active][:, None]
            v_good[beyond] = -np.inf
            v_wake[beyond] = -np.inf
        row_top = v_good.max(axis=1)
        before = top[active]
        top[active] = np.maximum(before, row_top)
        wake_top[active] = np.maximum(wake_top[active], v_wake.max(axis=1))
        raised = slice(None) if lo == 0 else row_top > before
        kept.append((lo, active[raised], v_good[raised], v_wake[raised], row_top[raised]))
        m = lo + length - 1
        upper, margin, never = _later_bound(v_good[:, -1], prefix[2][m], prefix[1][m], chains_left, cfg)
        done = last | _settled(top[active], wake_top[active], upper, margin, never)
        active = active[~done]
        lo += length
        length = min(2 * length, _CACHED_COUNTS, max(_FIRST_ROUND, _ROUND_COUNTS // max(active.size, 1)))
        if sum(row[2].size for row in kept[1:]) > _KEPT_COUNTS:
            for i, (at, ids, good, wake, row_max) in enumerate(kept[1:], 1):
                hold = ~(row_max < _band(top[ids]))  # a row below its chain's band stays below it
                kept[i] = (at, ids[hold], good[hold], wake[hold], row_max[hold])
    pick = np.full(len(chains), -1)
    good, wake = np.empty(len(chains)), np.empty(len(chains))
    for at, ids, v_good, v_wake, _ in kept:
        ties = _ties(v_good, top[ids])
        rows = np.flatnonzero(ties.any(axis=1) & (pick[ids] < 0))
        col = ties.argmax(axis=1)[rows]
        pick[ids[rows]] = at + col
        good[ids[rows]] = v_good[rows, col]
        wake[ids[rows]] = v_wake[rows, col]
    fail = prefix[3][pick] * wake
    return list(zip((wake_top < 0.0).tolist(), pick.tolist(), zip(good.tolist(), fail.tolist(), wake.tolist())))


class _Chain(NamedTuple):
    """A chain as the scan reads it: p, q and ``log(1 - p - q)``, unchecked.
    ``GEParams`` has the same fields, so a scan takes either."""

    p: float
    q: float
    log_persistence: float


def _scan(chains: Sequence[_Chain | GEParams], cfg: RewardConfig) -> list[tuple[ThresholdPolicy, PolicyValue]]:
    """``optimal_sleep_time`` of each chain, a valid one (``is_valid_chain``)
    that the scan does not check again.

    A lone chain whose counts 0..``default_n_max`` fit the first
    ``_CACHED_COUNTS`` is priced in one pass over all of them, with no
    stop bound; any other scan runs in ``_rounds`` and stops each chain
    once no later count can win. Every operation on the values is
    elementwise, and the pick rule runs over every count scanned, so
    each chain gets the bits of the one-pass scan of its full range.
    Only the picked counts' values become floats, v_fail = gamma^n
    v_wake there, and the chains that pick the same count share one
    ``ThresholdPolicy``. Values past the float range raise OverflowError.
    """
    if not chains:
        return []
    sizes = [default_n_max(c) + 1 for c in chains]
    if len(chains) == 1 and sizes[0] <= _CACHED_COUNTS:
        prefix = _discount_prefix(sizes[0], cfg.gamma)
        v_good, v_wake = _policy_values([t[: sizes[0]] for t in prefix[:3]], chains[0], cfg)
        i = int(_ties(v_good, v_good.max()).argmax())
        outcomes = [(bool(v_wake.max() < 0.0), i, (float(v_good[i]), float(prefix[3][i] * v_wake[i]), float(v_wake[i])))]
    else:
        step = _ROUND_COUNTS // _FIRST_ROUND
        outcomes = [o for i in range(0, len(chains), step) for o in _rounds(chains[i : i + step], sizes[i : i + step], cfg)]
    results = []
    policies = {}
    for chain, (never_wakes, n, value) in zip(chains, outcomes):
        if never_wakes:
            # after a failure sleeping forever earns 0; after a success
            # harvesting on until the first failure may still pay
            n, value = None, (max(0.0, _never_wake_value(chain, cfg)), 0.0, 0.0)
        if not (math.isfinite(value[0]) and math.isfinite(value[2])):
            raise OverflowError(
                f"policy values of (p, q) = ({chain.p}, {chain.q}) under (r1, r0) = ({cfg.r1}, {cfg.r0}) "
                f"leave the float range (magnitudes up to {sys.float_info.max:.4g}); scale the rewards down"
            )
        policy = policies.get(n)
        if policy is None:
            policy = policies[n] = ThresholdPolicy(n)
        results.append((policy, PolicyValue(*value)))
    return results


def optimal_sleep_time(params: GEParams, cfg: RewardConfig) -> tuple[ThresholdPolicy, PolicyValue]:
    """Best sleep-after-failure count over every count up to a cap.

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
    here over one (``_scan``), with the same pick rule (``_ties``). A
    chain whose counts fit the first ``_CACHED_COUNTS`` is priced in one
    pass; a longer one in rounds that stop once a bound proves no later
    count can win, with the count and its values those of pricing every
    count. The terms that depend only on n and gamma (n + 1, 1 - G,
    G = gamma^(n+1) and gamma^n) are sliced from one prefix of them kept
    for the last gamma scanned. Values past the float range raise
    OverflowError.
    """
    return _scan([_Chain(params.p, params.q, params.log_persistence)], cfg)[0]


def vi_threshold_policy(
    params: GEParams,
    cfg: RewardConfig,
    settings: VISettings | None = None,
) -> tuple[ThresholdPolicy, float]:
    """Sleep count implied by the value-iteration greedy crossover."""
    result = solve(params, cfg, settings=settings)
    return ThresholdPolicy(result.sleep_slots), result.crossover


class LookupCell(NamedTuple):
    """One (pi_g, t_b) cell of a ``LookupTable``, an immutable row: the
    chain's (p, q) from ``burst_escape_probabilities``, and for a valid
    chain (``is_valid_chain``) its optimal policy and v_good, both None
    otherwise."""

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
        row-major order with pi_g, t_b, p and q finite numbers, (p, q)
        the pair that ``burst_escape_probabilities`` gives (pi_g, t_b)
        (which refuses an axis value outside its domain), valid true exactly
        when (p, q) is a valid chain (``is_valid_chain``), v_good a finite
        number on valid cells and null on invalid ones, and each valid cell with
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
            for key in ("pi_g", "t_b", "p", "q"):
                if type(c[key]) not in (int, float) or not math.isfinite(c[key]):
                    raise ValueError(f"{where} has {key} {c[key]!r}, not a finite number")
            pair = (pi_g_axis[index // len(t_b_axis)], t_b_axis[index % len(t_b_axis)])
            if (c["pi_g"], c["t_b"]) != pair:
                raise ValueError(f"{where} has (pi_g, t_b) = ({c['pi_g']}, {c['t_b']}), not its axis pair {pair}")
            if not isinstance(c["valid"], bool):
                raise ValueError(f"{where} has valid {c['valid']!r}, not true or false")
            implied = burst_escape_probabilities(c["pi_g"], c["t_b"])
            if (c["p"], c["q"]) != implied:
                raise ValueError(f"{where} has (p, q) = ({c['p']}, {c['q']}), not {implied}, the pair its (pi_g, t_b) give")
            if c["valid"] != is_valid_chain(c["p"], c["q"]):
                flag, verdict = ("true", "is not") if c["valid"] else ("false", "is")
                raise ValueError(f"{where} has valid {flag}, but (p, q) = ({c['p']}, {c['q']}) {verdict} a valid chain")
            v_good = c["v_good"]
            if not (type(v_good) in (int, float) and math.isfinite(v_good) if c["valid"] else v_good is None):
                raise ValueError(f"{where} has v_good {v_good!r}, not {'a finite number' if c['valid'] else 'null'}")
            policy = None
            if c["valid"]:
                pol = c["policy"]
                _require_keys(pol, ("never_harvest", "sleep_slots"), f"policy of valid {where}")
                never, slots = pol["never_harvest"], pol["sleep_slots"]
                if not isinstance(never, bool):
                    raise ValueError(f"{where} has never_harvest {never!r}, not true or false")
                if not never and (type(slots) is not int or slots < 0):
                    raise ValueError(f"{where} has sleep_slots {slots!r}, not a nonnegative integer")
                policy = ThresholdPolicy(None if never else slots)
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
    documents and ``LookupTable.from_json_dict`` checks; an axis value
    outside the domain of ``burst_escape_probabilities`` is refused
    first. Each cell takes its (p, q) and its validity from one call of
    ``burst_escape_probabilities`` and of ``is_valid_chain``. The valid
    cells of the whole grid are scanned in one batch of ``_Chain`` rows,
    the scan of ``optimal_sleep_time`` over all their chains at once
    (``_scan``), with the discount-term prefix and the pick rule it
    uses; each cell gets the bits a scan of its chain alone gives. The
    batch's rounds stop each chain once no later count can win: on the
    standard grid most chains stop after their first 32 counts, and the
    whole grid takes one or two rounds.
    """
    grid = []
    for pi_g in pi_g_axis:
        for t_b in t_b_axis:
            p, q = burst_escape_probabilities(pi_g, t_b)
            grid.append((pi_g, t_b, p, q, is_valid_chain(p, q)))
    _check_axis("pi_g_axis", pi_g_axis)
    _check_axis("t_b_axis", t_b_axis)
    best = iter(_scan([_Chain(p, q, _log_persistence(p, q)) for _, _, p, q, valid in grid if valid], cfg))
    cells = []
    for pi_g, t_b, p, q, valid in grid:
        if valid:
            policy, value = next(best)
            cells.append(LookupCell(pi_g, t_b, p, q, policy, value.v_good))
        else:
            cells.append(LookupCell(pi_g, t_b, p, q, None, None))
    return LookupTable(
        pi_g_axis=tuple(float(x) for x in pi_g_axis),
        t_b_axis=tuple(float(x) for x in t_b_axis),
        cells=tuple(cells),
        cfg=cfg,
    )
