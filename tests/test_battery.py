"""Tests for the embedded battery chain and its absorption analysis."""

import io
import tracemalloc
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfharvest.battery import (
    _head,
    BatteryConfig,
    PolicyNeverHarvests,
    SWEEP_CSV_HEADER,
    absorption_analysis,
    build_chain,
    build_chain_from_success_probs,
    sweep_initial_levels,
    write_sweep_csv,
)
from rfharvest.beliefs import belief_after_failure_and_sleep
from rfharvest.gilbert_elliott import GEParams, from_burst_parameterization
from rfharvest.threshold import ThresholdPolicy

PARAMS = GEParams(p=0.2, q=0.3)

# Success probabilities on a 2^-20 grid inside (0.01, 0.99), so that
# 1 - s is exact. For other floats the rounding of 1 - s makes a dense
# I - Q row sum to 1 +- 2^-54, so the float oracle solves a slightly
# different chain: near zero drift at capacity 300 that moved its
# answer by up to 9.4e-13 from a 50-digit solve.
GRID_PROBABILITY = st.integers(10486, 1038090).map(lambda k: k / 2**20)
# The whole grid in (0, 1], strong drift and certain success included;
# Decimal holds every grid value and its complement exactly.
FULL_GRID_PROBABILITY = st.integers(1, 2**20).map(lambda k: k / 2**20)


# Success probabilities 1/2^20 .. 4/2^20 and their complements: at
# capacities 64-72 such chains drift so strongly that the rarer outcome
# falls below 1e-300 from the far end of the battery.
TINY_PROBABILITY = st.integers(1, 4).map(lambda k: k / 2**20)


def reference_success_probs(pi_g: float, t_b: float, sleep: int) -> tuple[float, float]:
    """(s0, s1) of ``build_chain`` on a burst-parameterized chain."""
    params = from_burst_parameterization(pi_g, t_b)
    return 1.0 - params.p, float(belief_after_failure_and_sleep(sleep, params))


# Two chains whose (g, m, a) repeat at consecutive levels before the
# coefficients stop changing: at (0.6, 2.5) with N = 1 they repeat at
# levels 78-79 and change at 80 (constant from level 82); at (0.35, 8)
# with N = 0 they hold over levels 258-263 and change at 264 and 265
# (constant from level 266).
NEAR_FIXED_POINT = reference_success_probs(0.6, 2.5, 1)
SLOW_FIXED_POINT = reference_success_probs(0.35, 8.0, 0)


def dense_chain(chain) -> tuple[np.ndarray, np.ndarray]:
    """Dense Q (transient to transient) and R (columns: depleted, full).

    States are level-major, index 2 * (level - 1) + phase.
    """
    cap = chain.battery.capacity
    n = 2 * (cap - 1)
    q = np.zeros((n, n))
    r = np.zeros((n, 2))
    succ = (chain.success_after_success, chain.success_after_failure)
    for i in range(n):
        phase, level = i % 2, i // 2 + 1
        s = succ[phase]
        if level + 1 == cap:
            r[i, 1] += s
        else:
            q[i, 2 * level] += s
        if level == 1:
            r[i, 0] += 1.0 - s
        else:
            q[i, 2 * (level - 2) + 1] += 1.0 - s
    return q, r


def slot_weights(chain) -> np.ndarray:
    """Slots per transition out of each transient state, level-major."""
    return np.tile([1.0, chain.sleep_slots + 1.0], chain.battery.capacity - 1)


def refined_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A dense float solve plus one step of iterative refinement, its
    residual computed exactly in rationals. Chains whose phases nearly
    alternate make I - Q ill-conditioned (condition number 1.5e6 at
    capacity 194, s0 = 0.01, s1 = 0.99), and there a plain solve
    misses a 50-digit one by 1.4e-12."""
    x = np.linalg.solve(a, b)
    residual = [
        float(Fraction(b[i]) - sum(Fraction(a[i, j]) * Fraction(x[j]) for j in np.flatnonzero(a[i])))
        for i in range(len(b))
    ]
    return x + np.linalg.solve(a, residual)


def dense_absorption(chain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle: full-charge, depletion and y = h * T from dense (I - Q) solves."""
    q, r = dense_chain(chain)
    a = np.eye(len(q)) - q
    h = refined_solve(a, r[:, 1])
    y = refined_solve(a, h * slot_weights(chain))
    return h, refined_solve(a, r[:, 0]), y


def decimal_solve(a: list, columns: list) -> list:
    """Gaussian elimination in the current decimal context, one solution
    per right-hand-side column. I - Q is a nonsingular M-matrix, so no
    pivoting is needed; zero multipliers are skipped for speed."""
    n = len(a)
    rows = [a[i][:] + [col[i] for col in columns] for i in range(n)]
    for k in range(n):
        pivot = rows[k]
        for i in range(k + 1, n):
            if rows[i][k]:
                f = rows[i][k] / pivot[k]
                rows[i][k:] = [x - f * y for x, y in zip(rows[i][k:], pivot[k:])]
    x = [[Decimal(0)] * n for _ in columns]
    for i in range(n - 1, -1, -1):
        for j, sol in enumerate(x):
            acc = rows[i][n + j] - sum(rows[i][c] * sol[c] for c in range(i + 1, n) if rows[i][c])
            sol[i] = acc / rows[i][i]
    return x


def decimal_absorption(chain) -> tuple[list, list, list]:
    """Oracle: full-charge, depletion and y = h * T from dense (I - Q)
    solves in 50-digit decimals. Exact inputs need success
    probabilities whose complements are exact floats (the 2^-20 grid)."""
    q, r = dense_chain(chain)
    n = len(q)
    with localcontext() as ctx:
        ctx.prec = 50
        a = [[Decimal(int(i == j)) - Decimal(q[i, j]) for j in range(n)] for i in range(n)]
        h, dep = decimal_solve(a, [[Decimal(v) for v in r[:, 1]], [Decimal(v) for v in r[:, 0]]])
        (y,) = decimal_solve(a, [[Decimal(w) * v for w, v in zip(slot_weights(chain), h)]])
    return h, dep, y


def seven_pass_absorption(chain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle: the level recursion as one coefficient pass plus a forward
    and a backward pass per system, each system solved with its zero
    costs written out. ``three_sweep_absorption`` must match it bit for
    bit. Returns the full-charge, depletion and conditional slot tables."""
    cap = chain.battery.capacity
    s0, s1 = chain.success_after_success, chain.success_after_failure
    f0, f1 = 1.0 - s0, 1.0 - s1
    g, m, a = array("d"), array("d"), array("d", [0.0])
    abar = 1.0
    for _ in range(cap - 1):
        g_l = s0 + f0 * abar
        m_l = s0 / g_l
        g.append(g_l)
        m.append(m_l)
        a.append(s1 + f1 * a[-1] * m_l)
        abar = f1 * abar / g_l

    def solve(cost0, cost1, at_zero, at_cap):
        e, c = array("d"), array("d", [at_zero])
        c_l = at_zero
        for g_l, a_prev, k0, k1 in zip(g, a, cost0, cost1):
            e_l = (k0 + f0 * c_l) / g_l
            c_l = k1 + f1 * (a_prev * e_l + c_l)
            e.append(e_l)
            c.append(c_l)
        x0, x1 = array("d", [at_cap]), array("d", [at_cap])
        up = at_cap
        for m_l, e_l, a_l, c_l in zip(reversed(m), reversed(e), reversed(a), reversed(c)):
            x1.append(a_l * up + c_l)
            up = m_l * up + e_l
            x0.append(up)
        x = np.empty((2, cap + 1))
        x[:, 0] = at_zero
        x[0, :0:-1] = x0
        x[1, :0:-1] = x1
        return x

    zeros = [0.0] * (cap - 1)
    full = solve(zeros, zeros, 0.0, 1.0)
    y = solve(memoryview(full[0, 1:]), memoryview((chain.sleep_slots + 1.0) * full[1, 1:]), 0.0, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        slots = np.where(full > 0.0, y / full, np.nan)
    return full, solve(zeros, zeros, 1.0, 0.0), slots


def three_sweep_absorption(chain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle: the level recursion over every level, O(capacity), as
    three sweeps. One upward sweep builds g, m, a with the depletion
    system's e, c (no costs, c_0 = 1); full charge is a running product
    of m from the top and needs no sweep; a second upward sweep builds
    the slot system y = h * T from h0 and (N+1) h1, and one downward
    sweep substitutes both remaining systems back. Each system's forward
    e, c are parked in the output rows that the back-substitution
    overwrites. The conditional slot counts are y / h, NaN where h is
    0.0. Returns the full-charge, depletion and conditional slot tables,
    every level 0..capacity."""
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
    return full, dep, slots


def simulate_chain(
    chain,
    initial_level: int,
    initial_phase: int,
    episodes: int,
    seed: int,
    max_transitions: int = 2_000_000_000,
) -> tuple[float, float]:
    """Oracle: Monte-Carlo estimate of (full-charge probability, its std error).

    Episodes run the embedded chain until absorption, independently of
    the analytic solve.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    cap = chain.battery.capacity
    level = np.full(episodes, initial_level, dtype=np.int64)
    phase = np.full(episodes, initial_phase, dtype=np.int8)
    active = (level > 0) & (level < cap)
    succ = np.array([chain.success_after_success, chain.success_after_failure])
    transitions = 0
    while active.any():
        transitions += int(active.sum())
        if transitions > max_transitions:
            raise RuntimeError("simulation budget exhausted before absorption")
        idx = np.nonzero(active)[0]
        u = rng.random(idx.size)
        ok = u < succ[phase[idx]]
        level[idx] = np.where(ok, level[idx] + 1, level[idx] - 1)
        phase[idx] = np.where(ok, 0, 1).astype(np.int8)
        np.clip(level, 0, cap, out=level)
        active[idx] = (level[idx] > 0) & (level[idx] < cap)
    hit = (level >= cap).astype(float)
    p_hat = float(hit.mean())
    se = float(hit.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else float("nan")
    return p_hat, se


def transient(table: np.ndarray) -> np.ndarray:
    """A (phase, level) result table as a level-major transient vector."""
    return table[:, 1:-1].T.reshape(-1)


def gambler_ruin_probs(success: float, capacity: int) -> np.ndarray:
    """Closed-form hit-the-top probability for a +1/-1 random walk."""
    rho = (1.0 - success) / success
    e = np.arange(capacity + 1)
    if abs(rho - 1.0) < 1e-15:
        return e / capacity
    return (1.0 - rho**e) / (1.0 - rho**capacity)


class TestBatteryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatteryConfig(capacity=1)
        with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
            BatteryConfig(capacity=2**63)
        assert BatteryConfig(capacity=2**63 - 1).level_array([0, 2**63 - 1]).dtype == np.int64


class TestBuildChain:
    def test_rejects_never_harvest(self):
        with pytest.raises(PolicyNeverHarvests):
            build_chain(PARAMS, ThresholdPolicy.never(), BatteryConfig(capacity=10))

    def test_rows_sum_to_one(self):
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(2), BatteryConfig(capacity=12))
        q, r = dense_chain(chain)
        np.testing.assert_allclose(q.sum(axis=1) + r.sum(axis=1), 1.0, atol=1e-12)

    def test_two_step_success_probability_by_hand(self):
        # two-step bad-to-good: q(1-p) + (1-q)q = 0.45 at (p, q) = (0.2, 0.3)
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(1), BatteryConfig(capacity=10))
        assert chain.success_after_failure == pytest.approx(0.45, abs=1e-12)
        assert chain.success_after_success == pytest.approx(0.8, abs=1e-12)
        assert chain.sleep_slots == 1

    def test_success_probabilities_in_half_open_unit_interval(self):
        battery = BatteryConfig(capacity=10)
        build_chain_from_success_probs(1.0, 1.0, 0, battery)
        for bad in (0.0, 1.0 + 2**-52):
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                build_chain_from_success_probs(bad, 0.5, 0, battery)

    def test_memoryless_probabilities_equalize(self):
        # when both phases share one success probability the phase is
        # irrelevant; this is the configuration the ruin oracle covers
        chain = build_chain_from_success_probs(0.3, 0.3, 0, BatteryConfig(capacity=6))
        res = absorption_analysis(chain)
        np.testing.assert_allclose(
            res.full_charge_prob[0], res.full_charge_prob[1], atol=1e-12
        )


class TestAbsorptionAnalysis:
    def test_endpoints_exact(self):
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(1), BatteryConfig(capacity=10))
        res = absorption_analysis(chain)
        assert res.full_charge_prob[0, 0] == 0.0 and res.full_charge_prob[1, 0] == 0.0
        assert res.full_charge_prob[0, 10] == 1.0 and res.full_charge_prob[1, 10] == 1.0
        assert res.expected_slots_conditional[0, 10] == 0.0

    def test_probabilities_complementary(self):
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(1), BatteryConfig(capacity=20))
        res = absorption_analysis(chain)
        np.testing.assert_allclose(
            res.full_charge_prob + res.depletion_prob, 1.0, atol=1e-10
        )

    @pytest.mark.parametrize("capacity", [10, 100])
    def test_gamblers_ruin_oracle(self, capacity):
        success = 0.6
        chain = build_chain_from_success_probs(success, success, 0, BatteryConfig(capacity=capacity))
        res = absorption_analysis(chain)
        closed = gambler_ruin_probs(success, capacity)
        for phase in (0, 1):
            np.testing.assert_allclose(res.full_charge_prob[phase], closed, atol=1e-10)

    def test_full_charge_prob_increasing_in_level(self):
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(1), BatteryConfig(capacity=30))
        res = absorption_analysis(chain)
        for phase in (0, 1):
            assert np.all(np.diff(res.full_charge_prob[phase]) > 0.0)

    def test_two_level_battery_by_hand(self):
        # capacity 2, start at 1: one transition decides everything, so
        # the conditional slot count equals the single transition weight
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(3), BatteryConfig(capacity=2))
        res = absorption_analysis(chain)
        assert res.full_charge_prob[0, 1] == pytest.approx(chain.success_after_success)
        assert res.full_charge_prob[1, 1] == pytest.approx(chain.success_after_failure)
        assert res.expected_slots_conditional[0, 1] == pytest.approx(1.0)
        assert res.expected_slots_conditional[1, 1] == pytest.approx(4.0)

    @given(
        capacity=st.integers(2, 300),
        s0=GRID_PROBABILITY,
        s1=GRID_PROBABILITY,
        sleep=st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_oracle(self, capacity, s0, s1, sleep):
        chain = build_chain_from_success_probs(s0, s1, sleep, BatteryConfig(capacity))
        res = absorption_analysis(chain)
        h, dep, y = dense_absorption(chain)
        np.testing.assert_allclose(transient(res.full_charge_prob), h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(transient(res.depletion_prob), dep, rtol=0, atol=1e-12)
        # the oracle's y / h is only as good as its absolute error on h
        likely = h >= 1e-6
        np.testing.assert_allclose(
            transient(res.expected_slots_conditional)[likely], y[likely] / h[likely], rtol=1e-10
        )

    @given(
        capacity=st.integers(2, 40),
        s0=FULL_GRID_PROBABILITY,
        s1=FULL_GRID_PROBABILITY,
        sleep=st.integers(0, 5),
    )
    @example(capacity=40, s0=2**-20, s1=2**-20, sleep=0)  # full charge down to 1.6e-235
    @example(capacity=40, s0=1 - 2**-20, s1=1 - 2**-20, sleep=3)  # depletion down to 1.6e-235
    @example(capacity=40, s0=2**-20, s1=1 - 2**-20, sleep=1)  # phases alternate for ~1e6 steps
    @example(capacity=40, s0=1.0, s1=2**-20, sleep=2)
    @example(capacity=40, s0=2**-20, s1=1.0, sleep=2)
    @settings(max_examples=150, deadline=None)
    def test_relative_accuracy_against_decimal_oracle(self, capacity, s0, s1, sleep):
        # phases that differ, unlike the ruin closed form: every
        # probability to 1e-13 relative and every slot count to 1e-12
        chain = build_chain_from_success_probs(s0, s1, sleep, BatteryConfig(capacity))
        res = absorption_analysis(chain)
        h, dep, y = decimal_absorption(chain)
        for got, exact in (
            (transient(res.full_charge_prob), h),
            (transient(res.depletion_prob), dep),
        ):
            exact = np.array([float(v) for v in exact])
            kept = exact >= 1e-290
            np.testing.assert_allclose(got[kept], exact[kept], rtol=1e-13, atol=0)
            np.testing.assert_array_equal(got[exact == 0.0], 0.0)
        slots = np.array([float(yi / hi) for yi, hi in zip(y, h)])
        np.testing.assert_allclose(transient(res.expected_slots_conditional), slots, rtol=1e-12, atol=0)

    @given(
        capacity=st.integers(2, 3000),
        s0=st.floats(0.0, 1.0, exclude_min=True),
        s1=st.floats(1e-6, 1.0),
        sleep=st.integers(0, 30),
    )
    @example(capacity=2, s0=1.0, s1=1e-6, sleep=0)
    @example(capacity=3000, s0=1.0, s1=1.0, sleep=30)
    @example(capacity=3000, s0=1e-6, s1=1e-6, sleep=7)  # full charge underflows
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_seven_pass_recursion(self, capacity, s0, s1, sleep):
        chain = build_chain_from_success_probs(s0, s1, sleep, BatteryConfig(capacity))
        got = three_sweep_absorption(chain)
        for table, expected in zip(got, seven_pass_absorption(chain)):
            assert table.tobytes() == expected.tobytes()

    @given(
        capacity=st.integers(2, 3000),
        s0=st.floats(1e-6, 1.0),
        s1=st.floats(1e-6, 1.0),
        sleep=st.integers(0, 30),
    )
    @example(capacity=60, s0=NEAR_FIXED_POINT[0], s1=NEAR_FIXED_POINT[1], sleep=1)
    @example(capacity=80, s0=NEAR_FIXED_POINT[0], s1=NEAR_FIXED_POINT[1], sleep=1)
    @example(capacity=83, s0=NEAR_FIXED_POINT[0], s1=NEAR_FIXED_POINT[1], sleep=1)
    @example(capacity=84, s0=NEAR_FIXED_POINT[0], s1=NEAR_FIXED_POINT[1], sleep=1)
    @example(capacity=3000, s0=NEAR_FIXED_POINT[0], s1=NEAR_FIXED_POINT[1], sleep=1)
    @example(capacity=200, s0=SLOW_FIXED_POINT[0], s1=SLOW_FIXED_POINT[1], sleep=0)
    @example(capacity=265, s0=SLOW_FIXED_POINT[0], s1=SLOW_FIXED_POINT[1], sleep=0)
    @example(capacity=267, s0=SLOW_FIXED_POINT[0], s1=SLOW_FIXED_POINT[1], sleep=0)
    @example(capacity=268, s0=SLOW_FIXED_POINT[0], s1=SLOW_FIXED_POINT[1], sleep=0)
    @example(capacity=3000, s0=SLOW_FIXED_POINT[0], s1=SLOW_FIXED_POINT[1], sleep=0)
    @example(capacity=3000, s0=1.0, s1=1.0, sleep=30)
    @example(capacity=3000, s0=1e-6, s1=1e-6, sleep=7)
    @example(capacity=3000, s0=0.5, s1=0.5, sleep=0)  # zero drift: no fixed point
    @settings(max_examples=100, deadline=None)
    def test_matches_three_sweep_oracle(self, capacity, s0, s1, sleep):
        # the fixed-point head and closed-form tail against the recursion
        # over every level, on both sides of the level where the
        # coefficients stop changing
        chain = build_chain_from_success_probs(s0, s1, sleep, BatteryConfig(capacity))
        res = absorption_analysis(chain)
        full, dep, slots = three_sweep_absorption(chain)
        for got, exact in ((res.full_charge_prob, full), (res.depletion_prob, dep)):
            kept = exact > 1e-290
            np.testing.assert_allclose(got[kept], exact[kept], rtol=1e-12, atol=0)
        kept = full > 1e-290  # where the oracle's y / h is sound
        np.testing.assert_allclose(res.expected_slots_conditional[kept], slots[kept], rtol=1e-12, atol=0)
        assert np.array_equal(np.isnan(res.expected_slots_conditional), res.full_charge_prob == 0.0)
        assert np.all(res.depletion_prob <= 1.0)
        # requested levels, in any order and repeated, are those columns
        levels = [capacity, 0, capacity // 2, capacity - 1, 1, capacity // 2]
        some = absorption_analysis(chain, levels)
        assert some.levels.tolist() == levels and some.capacity == capacity
        for got, every in (
            (some.full_charge_prob, res.full_charge_prob),
            (some.depletion_prob, res.depletion_prob),
            (some.expected_slots_conditional, res.expected_slots_conditional),
        ):
            assert got.tobytes() == every[:, levels].tobytes()

    @given(
        capacity=st.integers(2, 3000),
        s0=st.floats(1e-6, 1.0),
        s1=st.floats(1e-6, 1.0),
        sleep=st.integers(0, 30),
    )
    @example(capacity=3000, s0=NEAR_FIXED_POINT[0], s1=NEAR_FIXED_POINT[1], sleep=1)
    @example(capacity=3000, s0=SLOW_FIXED_POINT[0], s1=SLOW_FIXED_POINT[1], sleep=0)
    @example(capacity=3000, s0=0.5, s1=0.5, sleep=0)
    @settings(max_examples=100, deadline=None)
    def test_head_stops_only_at_a_fixed_point(self, capacity, s0, s1, sleep):
        # every level above the head has, bit for bit, the constants the
        # head hands to the closed-form tail, in the plain recursion
        chain = build_chain_from_success_probs(s0, s1, sleep, BatteryConfig(capacity))
        rows, tail = _head(chain)
        top = rows.shape[1]
        if tail is None:
            assert top == capacity - 1
            return
        g_t, m_t, a_t, u, v, beta, r = tail
        assert 0.0 <= beta < 1.0
        f0, f1 = 1.0 - s0, 1.0 - s1
        abar, a = 1.0, 0.0
        for level in range(1, capacity):
            g = s0 + f0 * abar
            m = s0 / g
            a_next = s1 + f1 * a * m
            if level > top:
                assert (g, m, a_next, f0 * a, f1 * a * m / a_next) == (g_t, m_t, a_t, u, v)
                assert (f1 * abar / g == abar) if r == 1.0 else (g == s0 and f1 * abar / g <= abar)
            a, abar = a_next, f1 * abar / g

    def test_levels_outside_the_battery_rejected(self):
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(1), BatteryConfig(capacity=10))
        for bad in ([11], [0, -1], [3, 2**64], [-(2**64)]):  # int64 cannot hold the last two
            with pytest.raises(ValueError, match=r"levels must lie in \[0, capacity\]"):
                absorption_analysis(chain, bad)

    @given(
        capacity=st.integers(64, 72),
        tiny0=TINY_PROBABILITY,
        tiny1=TINY_PROBABILITY,
        upward=st.booleans(),
        sleep=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_strong_drift_against_decimal_oracle(self, capacity, tiny0, tiny1, upward, sleep):
        # the rarer outcome falls below 1e-300 at the far end; the slot
        # counts keep 1e-12 wherever full charge reads above 0.0, where
        # it is subnormal too
        s0, s1 = (1.0 - tiny0, 1.0 - tiny1) if upward else (tiny0, tiny1)
        chain = build_chain_from_success_probs(s0, s1, sleep, BatteryConfig(capacity))
        res = absorption_analysis(chain)
        h, dep, y = decimal_absorption(chain)
        rare = min(min(h), min(dep))
        assert 0 < rare < Decimal("1e-300")
        for got, exact in (
            (transient(res.full_charge_prob), h),
            (transient(res.depletion_prob), dep),
        ):
            exact = np.array([float(v) for v in exact])
            kept = exact >= 1e-290
            np.testing.assert_allclose(got[kept], exact[kept], rtol=1e-13, atol=0)
            np.testing.assert_array_equal(got[exact == 0.0], 0.0)
        assert np.all(res.depletion_prob <= 1.0)
        slots = np.array([float(yi / hi) for yi, hi in zip(y, h)])
        got = transient(res.expected_slots_conditional)
        defined = transient(res.full_charge_prob) > 0.0
        assert np.array_equal(np.isnan(got), ~defined)
        np.testing.assert_allclose(got[defined], slots[defined], rtol=1e-12, atol=0)

    @given(
        capacity=st.integers(2, 3000),
        s0=st.floats(1e-6, 1.0),
        s1=st.floats(1e-6, 1.0),
        sleep=st.integers(0, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_slots_fall_as_level_rises(self, capacity, s0, s1, sleep):
        # from a post-success state every path to full charge passes each
        # higher level, so the conditional slot count falls with the level
        chain = build_chain_from_success_probs(s0, s1, sleep, BatteryConfig(capacity))
        slots = absorption_analysis(chain).expected_slots_conditional[0]
        defined = slots[~np.isnan(slots)]
        assert defined.size and np.all(np.diff(defined) < 0.0)
        assert np.array_equal(np.flatnonzero(np.isnan(slots)), np.arange(capacity + 1 - defined.size))

    def test_downward_drift_at_capacity_8000(self):
        # battery --pi-g 0.35 --t-b 8 --sleep-slots 0 --capacity 8000:
        # depletion never above 1 (the recursion's sums printed up to
        # 1.000000000000005 at levels 100-4000), and no slot count taken
        # from an underflowed probability. At level 1 full charge is
        # about 1e-454, below the double range, so it reads 0.0 and the
        # slot count NaN (the running product of m stuck at the smallest
        # subnormal and printed 13.5); the lowest level where it reads
        # above 0.0 needs more slots than level 2500.
        chain = build_chain(from_burst_parameterization(0.35, 8.0), ThresholdPolicy.sleep(0), BatteryConfig(8000))
        res = absorption_analysis(chain)
        full, slots = res.full_charge_prob, res.expected_slots_conditional
        assert np.all(res.depletion_prob <= 1.0) and np.all(res.depletion_prob[:, 2499] <= 1.0)
        assert np.all(full[:, 1] == 0.0) and np.all(np.isnan(slots[:, 1]))
        lowest = np.flatnonzero(full[0] > 0.0)[0]
        assert 1 < lowest < 2500
        assert slots[0, lowest] > slots[0, 2500] == pytest.approx(18333.333333333, rel=1e-12)

    def test_capacity_free_cost(self):
        # capacity 1e9: the head stops at level 74 and the tail is closed
        # form, so eleven levels need a few kilobytes
        chain = build_chain(from_burst_parameterization(0.7, 5.0), ThresholdPolicy.sleep(2), BatteryConfig(10**9))
        levels = list(range(0, 10**9 + 1, 10**8))
        tracemalloc.start()
        try:
            res = absorption_analysis(chain, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert res.levels.tolist() == levels
        assert np.all(np.isfinite(res.expected_slots_conditional[:, 1:]))
        np.testing.assert_allclose(res.full_charge_prob + res.depletion_prob, 1.0, rtol=0, atol=1e-12)
        assert np.all(np.diff(res.expected_slots_conditional[:, 1:], axis=1) < 0.0)

    def test_every_level_of_a_large_battery(self):
        # the tail's closed forms run in blocks of levels; every level of
        # capacity 300,000 matches the same levels requested alone
        chain = build_chain(from_burst_parameterization(0.7, 5.0), ThresholdPolicy.sleep(2), BatteryConfig(300_000))
        res = absorption_analysis(chain)
        levels = [0, 1, 74, 75, 76, 2**17 + 75, 2**17 + 76, 299_999, 300_000]
        some = absorption_analysis(chain, levels)
        for got, every in (
            (some.full_charge_prob, res.full_charge_prob),
            (some.depletion_prob, res.depletion_prob),
            (some.expected_slots_conditional, res.expected_slots_conditional),
        ):
            assert got.tobytes() == every[:, levels].tobytes()
        assert np.all(np.diff(res.expected_slots_conditional[0, 1:]) < 0.0)
        np.testing.assert_allclose(res.full_charge_prob + res.depletion_prob, 1.0, rtol=0, atol=1e-12)

    def test_tiny_probabilities_keep_relative_accuracy(self):
        # against the ruin closed form down to 2e-60: full charge under
        # downward drift, depletion under upward drift
        cap = 100
        e = np.arange(1, cap)
        for success in (0.2, 0.8):
            chain = build_chain_from_success_probs(success, success, 0, BatteryConfig(capacity=cap))
            res = absorption_analysis(chain)
            rho = (1.0 - success) / success
            full = (1.0 - rho**e) / (1.0 - rho**cap)
            dep = rho**e * (1.0 - rho ** (cap - e)) / (1.0 - rho**cap)
            for phase in (0, 1):
                np.testing.assert_allclose(res.full_charge_prob[phase, 1:cap], full, rtol=1e-12)
                np.testing.assert_allclose(res.depletion_prob[phase, 1:cap], dep, rtol=1e-12)

    def test_underflow_leaves_slots_undefined(self):
        # downward drift: from low levels full charge is reachable but
        # rarer than the smallest double, so its probability is 0.0 and
        # the conditional slot count NaN, while both probabilities stay
        # finite and complementary
        cap = 2000
        chain = build_chain_from_success_probs(0.3, 0.3, 0, BatteryConfig(capacity=cap))
        res = absorption_analysis(chain)
        assert np.all(np.isfinite(res.full_charge_prob)) and np.all(np.isfinite(res.depletion_prob))
        np.testing.assert_allclose(res.full_charge_prob + res.depletion_prob, 1.0, atol=1e-12)
        underflow = res.full_charge_prob[:, 1:cap] == 0.0
        assert underflow.any()
        assert np.array_equal(np.isnan(res.expected_slots_conditional[:, 1:cap]), underflow)

    def test_large_capacity_in_linear_memory(self):
        # a dense (I - Q) at capacity 5000 would take 800 MB
        params = from_burst_parameterization(pi_g=0.7, t_b=5.0)
        chain = build_chain(params, ThresholdPolicy.sleep(1), BatteryConfig(capacity=5000))
        tracemalloc.start()
        try:
            res = absorption_analysis(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        np.testing.assert_allclose(res.full_charge_prob + res.depletion_prob, 1.0, atol=1e-9)
        assert np.all(np.diff(res.full_charge_prob, axis=1) >= 0.0)

    def test_monte_carlo_agreement(self):
        # five random chains, analytic absorption within 3 sigma of
        # one million simulated episodes each
        rng = np.random.default_rng(1234)
        for trial in range(5):
            while True:
                p = float(rng.uniform(0.05, 0.6))
                q = float(rng.uniform(0.05, 0.6))
                if 1.0 - p > q + 0.02:
                    break
            params = GEParams(p=p, q=q)
            n = int(rng.integers(0, 3))
            capacity = 10
            level = int(rng.integers(3, 8))
            phase = int(rng.integers(0, 2))
            chain = build_chain(params, ThresholdPolicy.sleep(n), BatteryConfig(capacity=capacity))
            res = absorption_analysis(chain)
            exact = res.full_charge_prob[phase, level]
            est, se = simulate_chain(
                chain, initial_level=level, initial_phase=phase,
                episodes=1_000_000, seed=trial,
            )
            assert abs(est - exact) < 3.0 * max(se, 1e-12), (trial, exact, est, se)


class TestSweep:
    def test_rows_and_monotone_slots(self):
        params = from_burst_parameterization(pi_g=0.7, t_b=5.0)
        policy = ThresholdPolicy.sleep(1)
        rows = sweep_initial_levels(params, policy, BatteryConfig(capacity=50), list(range(0, 51, 5)))
        assert rows[0]["initial_level"] == 0
        assert rows[0]["full_charge_prob"] == pytest.approx(0.0)
        assert rows[-1]["full_charge_prob"] == pytest.approx(1.0)
        assert rows[-1]["expected_slots_conditional"] == pytest.approx(0.0)
        slots = [r["expected_slots_conditional"] for r in rows[1:]]
        assert all(a > b for a, b in zip(slots, slots[1:]))

    def test_low_depletion_at_one_fifth_charge(self):
        # bursty source with plentiful energy, driven by the optimal
        # sleep count under symmetric rewards: at 20% charge, depletion
        # is already a sub-5e-4 event
        from rfharvest.beliefs import RewardConfig
        from rfharvest.threshold import optimal_sleep_time

        params = from_burst_parameterization(pi_g=0.7, t_b=10.0)
        policy, _ = optimal_sleep_time(params, RewardConfig(r1=10.0, r0=10.0, gamma=0.99))
        rows = sweep_initial_levels(params, policy, BatteryConfig(capacity=100), [20])
        assert rows[0]["depletion_prob"] < 5e-4

    def test_csv_emission(self):
        params = from_burst_parameterization(pi_g=0.7, t_b=5.0)
        rows = sweep_initial_levels(
            params, ThresholdPolicy.sleep(1), BatteryConfig(capacity=10), [0, 5, 10]
        )
        out = io.StringIO()
        write_sweep_csv(rows, out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert len(lines) == 4

    def test_level_validation(self):
        with pytest.raises(ValueError):
            sweep_initial_levels(
                PARAMS, ThresholdPolicy.sleep(1), BatteryConfig(capacity=10), [11]
            )
