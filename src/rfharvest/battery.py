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
getting there, are the expected slots to absorption of the chain
conditioned on full charge (Doob's h-transform), whose transitions are
Q's scaled by h: from (phase, L) up with probability
s_phase h0(L+1) / h_phase(L).

I - Q is never formed. A harvest from (phase, level L) reaches only
(0, L + 1) or (1, L - 1), so the chain is a two-phase quasi-birth-death
process and each linear system is solved by linear level reduction
(Latouche & Ramaswami 1999). Sweeping upward from the depletion
boundary, each level's two unknowns are written in terms of the next
level's post-success unknown:

    X0(L) = m_L * X0(L+1) + e_L,    X1(L) = a_L * X0(L+1) + c_L

and back-substitution runs down from the full-charge boundary. The
coefficients m and a depend only on the chain. For full charge e and c
vanish, so h is a product of m and a; for depletion they are 1 - m_L
and 1 - a_L; and the conditioned chain's up-probabilities are the
coefficients themselves (g_L = s0 / m_L after a success, s1 / a_L after
a failure), so its slot counts never divide by h and keep their
precision where h is subnormal. The complement 1 - a is carried as its
own product, never as a subtraction, so every step adds terms of one
sign (the property Grassmann, Taksar & Heyman 1985 get for Gaussian
elimination by building pivots from row sums): probabilities far below
machine epsilon keep their relative accuracy until they leave the
floating-point range, and depletion never exceeds 1.

The coefficients reach an exact fixed point (the matrix-geometric
regime of the QBD): at (pi_g, t_b) = (0.7, 5) with N = 2 they are
constant from level 74. ``absorption_analysis`` runs the recursion only
until that is proven, by exact comparisons, and takes every level
above it from closed forms, so its cost is O(L* + requested levels),
not O(capacity): capacity 1e9 takes about the time of capacity 100.
Chains without a fixed point below capacity (zero drift) run the
recursion to capacity. The tests check it against the recursion over
every level, dense (I - Q) solves in floats and in 50-digit decimals,
and Monte-Carlo runs.
"""

from __future__ import annotations

import csv
import io
import math
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

    def level_array(self, levels) -> np.ndarray:
        """Initial ``levels`` as an int64 array; ValueError for a level
        outside [0, capacity]."""
        cols = np.array(levels, dtype=np.int64, ndmin=1)
        if cols.size and not (0 <= cols.min() and cols.max() <= self.capacity):
            bad = cols[(cols < 0) | (cols > self.capacity)][0]
            raise ValueError(f"levels must lie in [0, capacity], got {bad}")
        return cols


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
    """Embedded battery chain induced by a sleep-after-failure policy;
    FloatingPointError where the wake-up belief underflows to 0.0."""
    if policy.never_harvest:
        raise PolicyNeverHarvests("a never-harvest policy induces no battery chain")
    n = policy.sleep_slots
    wake = float(belief_after_failure_and_sleep(n, params))
    if wake == 0.0:
        raise FloatingPointError(
            f"the wake-up belief after {n} sleep slots at (p, q) = ({params.p}, {params.q}) underflows "
            f"to 0.0, below the smallest positive float {math.ulp(0.0)}; the battery chain needs it positive"
        )
    return build_chain_from_success_probs(
        success_after_success=1.0 - params.p,
        success_after_failure=wake,
        sleep_slots=n,
        battery=battery,
    )


@dataclass(frozen=True)
class AbsorptionResult:
    """Absorption quantities per (phase, level), one column per level.

    ``levels`` holds the initial battery levels of the columns in the
    order they were requested, every level 0..capacity by default, so
    that then column L is level L. ``full_charge_prob[phase, i]`` is the
    probability of filling the battery before depleting it from
    ``levels[i]``; ``depletion_prob`` is its complement, never above 1;
    ``expected_slots_conditional`` is the expected slot count to full
    charge given that it happens, 0 at full charge itself. It is NaN
    wherever ``full_charge_prob`` is 0.0: where full charge is
    unreachable (level 0), and also where it is reachable but less
    likely than the smallest positive double, so that the probability
    underflows (downward drift far below capacity). The slot count
    itself never divides by that probability, so everywhere else it
    keeps its relative precision, subnormal probabilities included.
    """

    capacity: int
    levels: np.ndarray
    full_charge_prob: np.ndarray
    depletion_prob: np.ndarray
    expected_slots_conditional: np.ndarray


# tail levels evaluated per block of closed forms (about 1 MB per temporary)
_TAIL_BLOCK = 1 << 17


def _geometric_sum(ratio: float, n: np.ndarray) -> np.ndarray:
    """The sum of ratio^i over i < n, elementwise in n >= 0, for ratio >= 0.
    From 1/2 up the numerator comes from ``expm1``, so the sum keeps its
    relative precision where the ratio is within ulps of 1 (and the
    denominator, ratio - 1, is then exact)."""
    if ratio == 1.0:
        return n
    if ratio < 0.5:
        return (1.0 - ratio**n) / (1.0 - ratio)
    return np.expm1(n * math.log(ratio)) / (ratio - 1.0)


def _head(chain: BatteryChain):
    """The upward recursion of ``absorption_analysis`` from level 1 until
    its coefficients provably stay constant, or to capacity - 1.

    Returns the rows g, a, abar, E, C for the levels 1..H swept and, if
    the sweep stopped at a fixed point, the constants of every level
    above H: (g, m, a, u, v, beta, r). The state that fixes every later
    coefficient is (abar, a). Once it repeats exactly, every level above
    repeats it. Once g has pinned at s0 (m = 1), abar did not grow and a
    repeats, g stays at s0 (it is monotone in abar, which keeps falling:
    its step is then one fixed monotone map), so m and a repeat too and
    only abar moves, by the factor r = f1 / s0. The tail's closed forms
    need the slot recursion to contract (beta < 1: the conditioned chain
    drifts up); a fixed point where it would not is not used.
    """
    cap = chain.battery.capacity
    s0, s1 = chain.success_after_success, chain.success_after_failure
    f0, f1 = 1.0 - s0, 1.0 - s1
    k = chain.sleep_slots + 1.0
    rows = array("d")
    push = rows.extend
    abar, a, c = 1.0, 0.0, 0.0  # level 0: a_0 = 0, abar_0 = 1, C_0 unused
    tail = None
    for _ in range(1, cap):
        g = s0 + f0 * abar
        m = s0 / g
        e_cond = (1.0 + f0 * a * c) / g
        up = f1 * a * m
        a_next = s1 + up
        v = up / a_next
        c = k + v * (e_cond + c)
        abar_next = f1 * abar / g
        push((g, a_next, abar_next, e_cond, c))
        if a_next == a and (abar_next == abar or (g == s0 and abar_next < abar)):
            u = f0 * a
            beta = v * (u / g + 1.0)
            if beta < 1.0:
                tail = (g, m, a, u, v, beta, 1.0 if abar_next == abar else f1 / g)
                break
        a, abar = a_next, abar_next
    return np.frombuffer(rows).reshape(-1, 5).T, tail


def absorption_analysis(chain: BatteryChain, levels=None) -> AbsorptionResult:
    """Full charge, depletion and conditional slot counts at ``levels``
    (every level by default), by level recursion in O(L* + len(levels)).

    With s0, s1 the per-phase success probabilities, the coefficients
    run upward from a_0 = 0 and abar_0 = 1 - a_0 = 1:

        g_L = s0 + (1 - s0) abar_{L-1}      m_L = s0 / g_L
        a_L = s1 + (1 - s1) a_{L-1} m_L     abar_L = (1 - s1) abar_{L-1} / g_L

    and the full-charge probabilities follow from the top down,
    h0(L) = m_L h0(L+1) and h1(L) = a_L h0(L+1), with h0(capacity) = 1.
    The depletion system's level reduction carries abar_L itself and
    1 - m_L = (1 - s0) abar_{L-1} / g_L, so its back-substitution is
    d0(L) = m_L d0(L+1) + 1 - m_L and d1(L) = a_L d0(L+1) + abar_L:
    every term is nonnegative. Where h is at most 1/2 the depletion
    probability is read as 1 - h instead, which is as precise there
    and never exceeds 1.

    The slot counts come from the chain conditioned on full charge
    (Doob's h-transform): it moves up with probability g_L after a
    success and s1 / a_L after a failure, so no h, however small,
    enters them. Its level reduction T0(L) = T0(L+1) + E_L and
    T1(L) = T0(L+1) + C_L has

        E_L = (1 + (1 - s0) a_{L-1} C_{L-1}) / g_L
        C_L = (N + 1) + v_L (E_L + C_{L-1}),  v_L = (1 - s1) a_{L-1} m_L / a_L

    (v_L is the conditioned chain's down-probability after a failure),
    again with terms of one sign.

    ``_head`` runs the recursion only until its coefficients provably
    stay constant (level L*, 74 at (pi_g, t_b) = (0.7, 5) with N = 2),
    with exact comparisons and no tolerance. Above L* the tail has
    closed forms: h0 = m^(capacity - L), abar and the depletion
    system's 1 - m are geometric in the level, and C is
    C_inf + (C_L* - C_inf) beta^(L - L*) with beta < 1, so the suffix
    sums of 1 - m and E are geometric sums (``_geometric_sum``). The
    head is back-substituted from the tail's value at L* + 1. Without a
    fixed point below capacity, the head is the whole recursion.
    """
    cap = chain.battery.capacity
    cols = np.arange(cap + 1) if levels is None else chain.battery.level_array(levels)
    s0 = chain.success_after_success
    f0 = 1.0 - s0
    (g, a, abar, e_cond, c), tail = _head(chain)
    top = g.size + 1  # the lowest level above the head: L* + 1, or capacity
    m = s0 / g
    # 1 - m_L, from abar_{L-1} (abar_0 = 1) as the recursion forms it
    e_dep = np.concatenate(([f0], f0 * abar[:-1]))
    e_dep /= g

    seed = (1.0, 0.0, 0.0)  # phase 0 at ``top``: h0, d0 and T0
    if tail is not None:
        g_t, m_t, a_t, u, v, beta, r = tail
        c_inf = (chain.sleep_slots + 1.0 + v / g_t) / (1.0 - beta)
        c_gap = c[-1] - c_inf  # C_L = c_inf + c_gap beta^(L - L*)
        e_top = f0 * abar[-1] / g_t  # 1 - m at top; r^j times that above

        def tail_phase0(level: np.ndarray):
            """h0, d0 and T0 at tail levels: suffix sums to capacity."""
            n, j = cap - level, level - top
            sum_c = n * c_inf + c_gap * beta**j * _geometric_sum(beta, n)
            return m_t**n, e_top * r**j * _geometric_sum(m_t * r, n), (n + u * sum_c) / g_t

        seed = tuple(float(x[0]) for x in tail_phase0(np.array([float(top)])))

    # the head, back-substituted from the top; index i is level i + 1
    h0_head = np.multiply.accumulate(np.concatenate(([seed[0]], m[::-1])))[::-1]
    t0_head = np.add.accumulate(np.concatenate(([seed[2]], e_cond[::-1])))[::-1]
    d = seed[1]
    d0_head = array("d", [d])
    for m_l, e_l in zip(memoryview(m)[::-1], memoryview(e_dep)[::-1]):
        d = m_l * d + e_l
        d0_head.append(d)
    d0_head = np.frombuffer(d0_head)[::-1]

    # levels 0..top; top holds the capacity's values, which the tail's
    # columns then replace where top < capacity
    table = np.empty((3, 2, top + 1))
    table[:, :, 0] = [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]
    table[:, :, top] = [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
    head = table[:, :, 1:top]
    head[0, 0], head[1, 0], head[2, 0] = h0_head[:-1], d0_head[:-1], t0_head[:-1]
    np.multiply(a, h0_head[1:], out=head[0, 1])
    np.add(np.multiply(a, d0_head[1:], out=head[1, 1]), abar, out=head[1, 1])
    np.add(t0_head[1:], c, out=head[2, 1])
    if tail is None and levels is None:
        out = table  # every level, and no tail: the table is the answer
    else:
        out = table[:, :, np.minimum(cols, top)]
    in_tail = np.flatnonzero((cols >= top) & (cols < cap)) if tail is not None else ()
    for lo in range(0, len(in_tail), _TAIL_BLOCK):  # blocks bound the temporaries
        at = in_tail[lo : lo + _TAIL_BLOCK]
        level = cols[at].astype(float)
        h0, d0, t0 = tail_phase0(level + 1.0)  # phase 1 reads the level above
        j = level + 1.0 - top
        out[0, 1, at] = a_t * h0
        out[1, 1, at] = a_t * d0 + abar[-1] * r**j
        out[2, 1, at] = t0 + c_inf + c_gap * beta**j
        out[:, 0, at] = tail_phase0(level)
    full, dep, slots = out
    np.subtract(1.0, full, out=dep, where=full <= 0.5)
    slots[full == 0.0] = np.nan
    return AbsorptionResult(
        capacity=cap,
        levels=cols,
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
    phase weights conditioned on reaching full charge. It is NaN where
    the row's full-charge probability is 0.0.
    """
    res = absorption_analysis(build_chain(params, policy, battery), levels)
    pi = stationary(params)
    w = np.array([pi.good, pi.bad])
    full = w @ res.full_charge_prob
    dep = w @ res.depletion_prob
    mix = w[:, None] * res.full_charge_prob
    with np.errstate(invalid="ignore"):  # 0/0 where full charge reads 0.0
        slots = np.nansum(mix * res.expected_slots_conditional, axis=0) / mix.sum(axis=0)
    slots[~(full > 0.0)] = np.nan
    burst = 1.0 / params.q
    return [
        {
            "initial_level": level,
            "burst_length": burst,
            "full_charge_prob": f,
            "depletion_prob": d,
            "expected_slots_conditional": s,
        }
        for level, f, d, s in zip(levels, full.tolist(), dep.tolist(), slots.tolist())
    ]


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
