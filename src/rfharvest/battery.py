"""Battery dynamics under a sleep-after-failure policy.

The policy only touches the battery at harvest instants, so the
process is embedded there: the state is (phase, level) where the
phase records whether the last harvest succeeded. From a post-success
state the next harvest happens one slot later and succeeds with the
one-step probability of staying good; from a post-failure state the
node sleeps N slots first, so N+1 slots elapse and the success
probability is the (N+1)-step transition from bad to good. Levels 0
and capacity are absorbing (a dead battery cannot power the radio; a
full one stops accumulating).

Absorption probabilities come from the fundamental-matrix method:
with Q the transient block and h the full-charge hit probabilities,
(I - Q) h = R_full. Expected slots to full charge, conditional on
getting there, solve (I - Q) y = h * w with y = h * T, where w is the
per-transition slot cost (1 or N+1 by phase).

I - Q is never formed. With the unknowns ordered level-major (index
2 * (level - 1) + phase), a harvest moves from (phase, level) only to
(0, level + gain) or (1, level - loss), so I - Q is banded: lower
bandwidth 2 * loss, upper bandwidth 2 * gain. It is a nonsingular
M-matrix, so Gaussian elimination without pivoting keeps its fill-in
inside the band and is stable. One factorisation serves all three
right-hand sides, in O(capacity * gain * loss) time and
O(capacity * (gain + loss)) memory. Each pivot is taken as the
absorbing mass of its row plus the magnitudes of its remaining
off-diagonal entries (Grassmann, Taksar & Heyman 1985): the eliminated
diagonal in exact arithmetic, but a sum of nonnegative terms. Every
step of the sweep then adds terms of one sign, so probabilities far
below machine epsilon keep their relative accuracy until they leave
the floating-point range. The tests check the sweep against dense
(I - Q) solves.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass

import numpy as np

from .beliefs import belief_after_failure_and_sleep
from .gilbert_elliott import GEParams, stationary
from .threshold import ThresholdPolicy

__all__ = [
    "BatteryConfig",
    "BatteryChain",
    "AbsorptionResult",
    "PolicyNeverHarvests",
    "build_chain",
    "build_chain_from_success_probs",
    "absorption_analysis",
    "sweep_initial_levels",
    "write_sweep_csv",
]

SWEEP_CSV_HEADER = (
    "initial_level",
    "burst_length",
    "full_charge_prob",
    "depletion_prob",
    "expected_slots_conditional",
)


class PolicyNeverHarvests(ValueError):
    """A never-harvest policy induces no battery chain."""


@dataclass(frozen=True)
class BatteryConfig:
    """Integer-unit battery: capacity, per-success gain, per-failure loss."""

    capacity: int
    gain: int = 1
    loss: int = 1

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2 units")
        if self.gain < 1 or self.loss < 1:
            raise ValueError("gain and loss must be at least 1 unit")


@dataclass(frozen=True)
class BatteryChain:
    """Embedded chain at harvest instants.

    Transient states are (phase, level) for levels 1..capacity-1 with
    phase 0 = last harvest succeeded, phase 1 = last harvest failed.
    A harvest from phase ``ph`` succeeds with ``success_after_success``
    (ph = 0) or ``success_after_failure`` (ph = 1), moving ``gain``
    levels up into phase 0, and otherwise ``loss`` levels down into
    phase 1. ``slot_weights[ph]`` gives the slots consumed by one
    transition out of phase ``ph``.
    """

    battery: BatteryConfig
    sleep_slots: int
    success_after_success: float
    success_after_failure: float
    slot_weights: np.ndarray

    @property
    def n_transient(self) -> int:
        return 2 * (self.battery.capacity - 1)


def build_chain_from_success_probs(
    success_after_success: float,
    success_after_failure: float,
    sleep_slots: int,
    battery: BatteryConfig,
) -> BatteryChain:
    """Assemble the embedded chain from raw per-phase success probabilities.

    This is the degenerate-friendly entry point: it accepts any success
    probabilities in (0, 1), including the memoryless case where both
    phases succeed equally, which has a gambler's-ruin closed form.
    """
    for s in (success_after_success, success_after_failure):
        if not 0.0 < s < 1.0:
            raise ValueError(f"success probabilities must lie in (0, 1), got {s}")
    if sleep_slots < 0:
        raise ValueError("sleep_slots must be nonnegative")
    return BatteryChain(
        battery=battery,
        sleep_slots=sleep_slots,
        success_after_success=success_after_success,
        success_after_failure=success_after_failure,
        slot_weights=np.array([1.0, sleep_slots + 1.0]),
    )


def build_chain(
    params: GEParams, policy: ThresholdPolicy, battery: BatteryConfig
) -> BatteryChain:
    """Embedded battery chain induced by a sleep-after-failure policy."""
    if policy.never_harvest:
        raise PolicyNeverHarvests("a never-harvest policy induces no battery chain")
    n = policy.sleep_slots
    return build_chain_from_success_probs(
        success_after_success=1.0 - params.p,
        success_after_failure=float(belief_after_failure_and_sleep(n, params)),
        sleep_slots=n,
        battery=battery,
    )


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption quantities per (phase, level), levels 0..capacity.

    ``full_charge_prob[phase, level]`` is the probability of filling the
    battery before depleting it; ``expected_slots_conditional`` is the
    expected slot count to full charge given that it happens, 0 at full
    charge itself. It is NaN wherever ``full_charge_prob`` is 0.0: where
    full charge is unreachable (level 0), and also where it is reachable
    but less likely than the smallest positive double, so that the
    probability underflows (downward drift far below capacity).
    """

    capacity: int
    full_charge_prob: np.ndarray
    depletion_prob: np.ndarray
    expected_slots_conditional: np.ndarray


def absorption_analysis(chain: BatteryChain) -> AbsorptionResult:
    """Solve for h, the depletion probabilities and y = h * T in one sweep.

    Elimination runs row by row. Row i of I - Q is held over columns
    i - lo .. i + up (diagonal at offset lo); its entries left of the
    diagonal are cleared with the finished rows above it, whose
    multipliers are kept for the third right-hand side. The finished
    rows are stored flat behind ``lo`` rows of the identity, so row i
    sits at index lo + i and every row has ``lo`` rows above it.
    """
    cap = chain.battery.capacity
    gain, loss = chain.battery.gain, chain.battery.loss
    lo, up = 2 * loss, 2 * gain
    n = chain.n_transient
    succ = (chain.success_after_success, chain.success_after_failure)
    pivots = array("d", [1.0] * lo)
    uppers = array("d", [0.0] * (lo * up))  # up entries right of each pivot
    factors = array("d")  # lo multipliers per row
    full = array("d", [0.0] * lo)
    dep = array("d", [0.0] * lo)
    for i in range(n):
        phase = i % 2
        level = i // 2 + 1
        s = succ[phase]
        row = [0.0] * (lo + 1 + up)
        b_full = b_dep = 0.0
        if level + gain < cap:
            row[lo + up - phase] = -s
        else:
            b_full = s
        if level - loss > 0:
            row[1 - phase] = -(1.0 - s)
        else:
            b_dep = 1.0 - s
        for c in range(lo):
            k = i + c  # stored index of row i - lo + c
            f = row[c] / pivots[k]
            factors.append(f)
            for j in range(up):
                row[c + 1 + j] -= f * uppers[k * up + j]
            b_full -= f * full[k]
            b_dep -= f * dep[k]
        # GTH pivot: each row of [I - Q | R] sums to 0, and elimination
        # keeps it so; the eliminated diagonal row[lo] is never read
        upper = row[lo + 1 :]
        pivots.append(b_full + b_dep - sum(upper))
        uppers.extend(upper)
        full.append(b_full)
        dep.append(b_dep)

    def back_substitute(b: array) -> np.ndarray:
        x = array("d", bytes(8 * (lo + n + up)))
        for k in range(lo + n - 1, lo - 1, -1):
            acc = b[k]
            for j in range(up):
                acc -= uppers[k * up + j] * x[k + 1 + j]
            x[k] = acc / pivots[k]
        return np.frombuffer(x)[lo : lo + n]

    h = back_substitute(full)
    depl = back_substitute(dep)
    weights = [float(w) for w in chain.slot_weights]
    z = array("d", [0.0] * lo)
    for i, h_i in enumerate(h.tolist()):
        acc = weights[i % 2] * h_i
        for c in range(lo):
            acc -= factors[i * lo + c] * z[i + c]
        z.append(acc)
    y = back_substitute(z)

    def by_phase(x: np.ndarray, at_zero: float, at_cap: float) -> np.ndarray:
        out = np.empty((2, cap + 1))
        out[:, 0] = at_zero
        out[:, cap] = at_cap
        out[:, 1:cap] = x.reshape(cap - 1, 2).T
        return out

    full_prob = by_phase(h, 0.0, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        slots = np.where(full_prob > 0.0, by_phase(y, 0.0, 0.0) / full_prob, np.nan)
    return AbsorptionResult(
        capacity=cap,
        full_charge_prob=full_prob,
        depletion_prob=by_phase(depl, 1.0, 0.0),
        expected_slots_conditional=slots,
    )


def sweep_initial_levels(
    params: GEParams,
    policy: ThresholdPolicy,
    battery: BatteryConfig,
    levels: list[int],
) -> list[dict]:
    """Absorption summary rows for the requested initial levels.

    The starting phase is drawn from the stationary distribution, so
    each row mixes the post-success and post-failure entries with
    weights (pi_g, pi_b); the conditional slot count is mixed with the
    phase weights conditioned on reaching full charge.
    """
    cap = battery.capacity
    for level in levels:
        if not 0 <= level <= cap:
            raise ValueError(f"levels must lie in [0, capacity], got {level}")
    chain = build_chain(params, policy, battery)
    res = absorption_analysis(chain)
    pi = stationary(params)
    w = np.array([pi.good, pi.bad])
    rows = []
    for level in levels:
        full = float(w @ res.full_charge_prob[:, level])
        dep = float(w @ res.depletion_prob[:, level])
        if full > 0.0:
            mix = w * res.full_charge_prob[:, level]
            cond = res.expected_slots_conditional[:, level]
            slots = float(np.nansum(mix * cond) / mix.sum())
        else:
            slots = float("nan")
        rows.append(
            {
                "initial_level": level,
                "burst_length": 1.0 / params.q,
                "full_charge_prob": full,
                "depletion_prob": dep,
                "expected_slots_conditional": slots,
            }
        )
    return rows


def write_sweep_csv(rows: list[dict], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row["initial_level"],
                repr(row["burst_length"]),
                repr(row["full_charge_prob"]),
                repr(row["depletion_prob"]),
                repr(row["expected_slots_conditional"]),
            ]
        )
