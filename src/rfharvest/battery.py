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

I - Q is never formed. A harvest from (phase, level L) reaches only
(0, L + 1) or (1, L - 1), so the chain is a two-phase quasi-birth-death
process and each linear system is solved by linear level reduction
(Latouche & Ramaswami 1999). Sweeping upward from the depletion
boundary, each level's two unknowns are written in terms of the next
level's post-success unknown:

    X0(L) = m_L * X0(L+1) + e_L,    X1(L) = a_L * X0(L+1) + c_L

and back-substitution runs down from the full-charge boundary. The
coefficients m and a depend only on the chain, so the full-charge,
depletion and slot-count systems share them; e and c carry each
system's right-hand side, and three sweeps over the levels solve all
three (see ``absorption_analysis``). The complement 1 - a is carried
as its own product, never as a subtraction, so every step adds
terms of one sign (the property Grassmann, Taksar & Heyman 1985 get
for Gaussian elimination by building pivots from row sums).
Probabilities far below machine epsilon therefore keep their relative
accuracy until they leave the floating-point range. Time is linear in
capacity and memory a few doubles per level. The tests check the
recursion against dense (I - Q) solves in floats and in 50-digit
decimals.
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
    """Integer-unit battery: a success adds one unit, a failure spends one."""

    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2 units")


@dataclass(frozen=True)
class BatteryChain:
    """Embedded chain at harvest instants.

    Transient states are (phase, level) for levels 1..capacity-1 with
    phase 0 = last harvest succeeded, phase 1 = last harvest failed.
    A harvest from phase ``ph`` succeeds with ``success_after_success``
    (ph = 0) or ``success_after_failure`` (ph = 1), moving one level up
    into phase 0, and otherwise one level down into phase 1. A
    transition out of phase 0 takes one slot, and one out of phase 1
    takes ``sleep_slots + 1``.
    """

    battery: BatteryConfig
    sleep_slots: int
    success_after_success: float
    success_after_failure: float


def build_chain_from_success_probs(
    success_after_success: float,
    success_after_failure: float,
    sleep_slots: int,
    battery: BatteryConfig,
) -> BatteryChain:
    """Assemble the embedded chain from raw per-phase success probabilities.

    This is the degenerate-friendly entry point: it accepts any success
    probabilities in (0, 1], including the memoryless case where both
    phases succeed equally, which has a gambler's-ruin closed form, and
    a success probability of exactly 1, which ``1 - p`` rounds to when
    p is at most 2^-54.
    """
    for s in (success_after_success, success_after_failure):
        if not 0.0 < s <= 1.0:
            raise ValueError(f"success probabilities must lie in (0, 1], got {s}")
    if sleep_slots < 0:
        raise ValueError("sleep_slots must be nonnegative")
    return BatteryChain(
        battery=battery,
        sleep_slots=sleep_slots,
        success_after_success=success_after_success,
        success_after_failure=success_after_failure,
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
    """Solve for h, the depletion probabilities and y = h * T by level recursion.

    With s0, s1 the per-phase success probabilities, the shared
    coefficients run upward from a_0 = 0 and abar_0 = 1 - a_0 = 1:

        g_L = s0 + (1 - s0) abar_{L-1}      m_L = s0 / g_L
        a_L = s1 + (1 - s1) a_{L-1} m_L     abar_L = (1 - s1) abar_{L-1} / g_L

    and a system with per-level costs cost0_L, cost1_L (zero for the
    probabilities, w * h for y) and depletion value c_0 adds

        e_L = (cost0_L + (1 - s0) c_{L-1}) / g_L
        c_L = cost1_L + (1 - s1) (a_{L-1} e_L + c_{L-1})

    before X0(L) = m_L X0(L+1) + e_L and X1(L) = a_L X0(L+1) + c_L are
    substituted back from X0(capacity), the full-charge value. Every
    term is nonnegative, so no step cancels, and a cost term that is 0
    can be dropped without changing a bit.

    Three sweeps over the levels do it. The first builds g, m, a with
    the depletion system's e, c (no costs, c_0 = 1). The full-charge
    system has e = c = 0, so X0 is a running product of m from the top
    and X1(L) = a_L X0(L+1): no sweep. The second builds the slot
    system's e, c from h0 and (N+1) h1, and the third substitutes both
    remaining systems back. Each system's forward e, c are parked in
    the output rows that the back-substitution overwrites.
    """
    cap = chain.battery.capacity
    s0, s1 = chain.success_after_success, chain.success_after_failure
    f0, f1 = 1.0 - s0, 1.0 - s1
    levels = range(1, cap)
    full, dep, y = (np.empty((2, cap + 1)) for _ in range(3))
    dep_e, dep_c, y_e, y_c = (memoryview(row) for row in (*dep, *y))
    g, m, a = (array("d", [0.0]) * cap for _ in range(3))  # indexed by level; a_0 = 0
    abar, a_l, c_l = 1.0, 0.0, 1.0
    for level in levels:
        g[level] = g_l = s0 + f0 * abar
        m[level] = m_l = s0 / g_l
        dep_e[level] = e_l = f0 * c_l / g_l
        dep_c[level] = c_l = f1 * (a_l * e_l + c_l)
        a[level] = a_l = s1 + f1 * a_l * m_l
        abar = f1 * abar / g_l

    full[:, 0], full[:, cap] = 0.0, 1.0
    np.multiply.accumulate(np.frombuffer(m)[:0:-1], out=full[0, cap - 1 : 0 : -1])
    np.multiply(np.frombuffer(a)[1:], full[0, 2:], out=full[1, 1:cap])

    # the slot costs (N+1) h1 are parked in y's phase-1 row; each zip
    # below reads a level's parked values before the body overwrites them
    np.multiply(full[1, 1:cap], chain.sleep_slots + 1.0, out=y[1, 1:cap])
    c_l = 0.0
    for level, g_l, a_prev, h0, k1 in zip(levels, memoryview(g)[1:], a, full[0, 1:cap].data, y_c[1:cap]):
        y_e[level] = e_l = (h0 + f0 * c_l) / g_l
        y_c[level] = c_l = k1 + f1 * (a_prev * e_l + c_l)

    dep_up = y_up = 0.0
    for level, m_l, a_l, de, dc, ye, yc in zip(
        reversed(levels), reversed(m), reversed(a),
        *(reversed(row[1:cap]) for row in (dep_e, dep_c, y_e, y_c)),
    ):
        dep_c[level] = a_l * dep_up + dc
        dep_e[level] = dep_up = m_l * dep_up + de
        y_c[level] = a_l * y_up + yc
        y_e[level] = y_up = m_l * y_up + ye
    dep[:, 0], dep[:, cap] = 1.0, 0.0
    y[:, 0], y[:, cap] = 0.0, 0.0

    with np.errstate(invalid="ignore", divide="ignore"):
        slots = np.divide(y, full, out=y)
    slots[full == 0.0] = np.nan
    return AbsorptionResult(
        capacity=cap,
        full_charge_prob=full,
        depletion_prob=dep,
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
