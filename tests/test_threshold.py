"""Tests for the closed-form threshold policies and lookup tables.

Two oracles state the sleep-n policy values apart from the package's
closed form: ``linear_system_values`` solves the 3x3 system in floats
with numpy, and ``decimal_policy_values`` eliminates the same system in
60-digit decimals, exact enough to judge the last float digits and the
argmax near gamma = 1 and persistence = 1.
"""

import io
import itertools
import json
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rfharvest import cli
from rfharvest.beliefs import RewardConfig, _discount_terms, _policy_values, _sleep_count, belief_after_failure_and_sleep
from rfharvest.gilbert_elliott import (
    GEParams,
    burst_escape_probabilities,
    from_burst_parameterization,
    is_valid_chain,
    stationary,
)
from rfharvest.harness import mc_policy_value
from rfharvest.threshold import (
    STANDARD_PI_G,
    STANDARD_T_B,
    LookupCell,
    LookupTable,
    PolicyValue,
    ThresholdPolicy,
    build_lookup_table,
    default_n_max,
    grid_axis,
    optimal_sleep_time,
    policy_value_linear_system,
    vi_threshold_policy,
    _CACHED_COUNTS,
    _STOP_MARGIN,
    _TIE_BAND,
    _chain_fields,
    _later_bound,
    _nearest_index,
    _prefix,
    _scan,
    _settled,
    _ties,
)
from rfharvest.value_iteration import VISettings, solve

from test_gilbert_elliott import valid_params

PARAMS = GEParams(p=0.2, q=0.3)
CFG = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
REWARDS = ((10.0, 1.0), (10.0, 10.0), (1.0, 10.0))


def scan_values(params: GEParams, cfg: RewardConfig):
    """(v_good, v_fail, v_wake) over every count the scan looks at, with
    discount terms computed afresh; v_fail is gamma^n v_wake."""
    terms = _discount_terms(np.arange(default_n_max(params) + 1), cfg.gamma)
    v_good, v_wake = _policy_values(terms, params, cfg)
    return v_good, terms[3] * v_wake, v_wake


def reference_sleep_time(params: GEParams, cfg: RewardConfig) -> tuple[ThresholdPolicy, PolicyValue]:
    """The scan of one chain over uncached terms, with np.max and argmax:
    the oracle for ``optimal_sleep_time`` and the table's batches. A
    never cell is worth max(0, y) after a success, y the value of
    harvesting until the first failure, and 0 elsewhere."""
    values = scan_values(params, cfg)
    v_good, _, v_wake = values
    if float(np.max(v_wake)) < 0.0:
        g, p = cfg.gamma, params.p
        y = (cfg.r1 * (1.0 - p) - cfg.r0 * p) / ((1.0 - g) + g * p)
        return ThresholdPolicy(None), PolicyValue(v_good=max(0.0, y), v_fail=0.0, v_wake=0.0)
    top = np.max(v_good)
    best = int(np.argmax(v_good >= top - _TIE_BAND * abs(top)))
    return ThresholdPolicy(best), PolicyValue(*(float(v[best]) for v in values))


def bits(value: PolicyValue) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in (value.v_good, value.v_fail, value.v_wake))


def linear_system_values(n: int, params: GEParams, cfg: RewardConfig) -> PolicyValue:
    """Sleep-n policy values from a float solve of the 3x3 system."""
    g, p = cfg.gamma, params.p
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
    v_fail, v_good, v_wake = np.linalg.solve(a, rhs)
    return PolicyValue(v_good=float(v_good), v_fail=float(v_fail), v_wake=float(v_wake))


def decimal_policy_values(n: int, params: GEParams, cfg: RewardConfig):
    """Exact (v_good, v_fail, v_wake) of the sleep-n policy, and their scales.

    The float inputs convert exactly to 60-digit decimals, and the 3x3
    system is eliminated with partial pivoting; cancellation near
    gamma = 1 costs a few tens of the 60 digits, far from the 1e-12 the
    tests resolve.

    Each scale is what its value would be if the terms of the closed
    form's numerators all had one sign. A float evaluation is off by
    some rounding errors of that scale, so where the terms cancel to
    near zero (v_good near 0 sits on the never-harvest boundary) no
    evaluation keeps relative precision; elsewhere the scale is the
    value's own size.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        p, q, g, r1, r0 = map(Decimal, (params.p, params.q, cfg.gamma, cfg.r1, cfg.r0))
        c = 1 - p - q
        b = q * (1 - c ** (n + 1)) / (p + q)
        g_n = g**n if n else Decimal(1)  # decimal leaves 0 ** 0 undefined
        zero = Decimal(0)
        rows = [
            [Decimal(1), zero, -g_n, zero],
            [-g * p, 1 - g * (1 - p), zero, (1 - p) * (r0 + r1) - r0],
            [zero, -g * b, 1 - g ** (n + 1) * (1 - b), b * (r0 + r1) - r0],
        ]
        for k in range(3):
            pivot = max(range(k, 3), key=lambda i: abs(rows[i][k]))
            rows[k], rows[pivot] = rows[pivot], rows[k]
            for i in range(k + 1, 3):
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        x = [zero] * 3
        for i in (2, 1, 0):
            x[i] = (rows[i][3] - sum(rows[i][j] * x[j] for j in range(i + 1, 3))) / rows[i][i]
        v_fail, v_good, v_wake = x

        big_g = g ** (n + 1)
        den = (1 - big_g) * (1 - g + g * p) + big_g * b * (1 - g)
        s_good = (r1 * (1 - p) * (1 - big_g) + big_g * r1 * b + p * r0) / den
        s_wake = (b * (r0 + r1) + r0 + g * b * s_good) / (1 - big_g + big_g * b)
        return (v_good, v_fail, v_wake), (s_good, g_n * s_wake, s_wake)


def within(value: float, exact: Decimal, scale: Decimal) -> bool:
    """1e-12 relative, plus 1e-14 (some 50 rounding errors) of the scale."""
    return abs(Decimal(value) - exact) <= Decimal("1e-12") * abs(exact) + Decimal("1e-14") * scale


def assert_values_exact(value: PolicyValue, oracle, n: int, cfg: RewardConfig) -> None:
    """Each value within 1e-12 relative of its exact counterpart.

    v_fail = gamma^n v_wake is checked only where gamma^n is a normal
    float: a subnormal (or zero) power keeps fewer than 13 digits.
    """
    exact, scales = oracle
    got = (value.v_good, value.v_fail, value.v_wake)
    for name, v, e, scale in zip(("v_good", "v_fail", "v_wake"), got, exact, scales):
        if name != "v_fail" or cfg.gamma**n >= sys.float_info.min:
            assert within(v, e, scale), (name, v, e)


@st.composite
def edge_problems(draw):
    """(params, cfg) with 1 - gamma in [1e-8, 1] and p + q in [1e-7, 1).

    Both are drawn log-uniformly, with their edges (1 - gamma = 1e-8,
    gamma = 0, p + q = 1e-7, p + q next to 1) drawn on purpose.
    """
    d = draw(st.sampled_from([1e-8, 1.0]) | st.floats(-8.0, 0.0).map(lambda x: 10.0**x))
    s = draw(st.sampled_from([1e-7, 1.0 - 1e-12]) | st.floats(-7.0, 0.0, exclude_max=True).map(lambda x: 10.0**x))
    pi_g = draw(st.floats(0.05, 0.95))
    p, q = s * (1.0 - pi_g), s * pi_g
    assume(is_valid_chain(p, q))
    r1, r0 = draw(st.sampled_from(REWARDS))
    return GEParams(p=p, q=q), RewardConfig(r1=r1, r0=r0, gamma=1.0 - d)


class TestSleepTimeFromThreshold:
    def test_direct_evaluation(self):
        # (0.3 - 0.5*0.45)/0.3 = 0.25, log_0.5(0.25) = 2, so N = 1
        policy = ThresholdPolicy(_sleep_count(0.45, PARAMS))
        assert policy.sleep_slots == 1

    def test_threshold_at_stationary_never_harvests(self):
        pi_g = stationary(PARAMS).good
        assert ThresholdPolicy(_sleep_count(pi_g, PARAMS)).never_harvest
        assert ThresholdPolicy(_sleep_count(0.99, PARAMS)).never_harvest

    def test_threshold_below_q_means_no_sleep(self):
        assert ThresholdPolicy(_sleep_count(0.3, PARAMS)).sleep_slots == 0
        assert ThresholdPolicy(_sleep_count(0.05, PARAMS)).sleep_slots == 0
        assert ThresholdPolicy(_sleep_count(-2.0, PARAMS)).sleep_slots == 0

    @given(valid_params(), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_count_matches_first_belief_clearing_threshold(self, params, bbar):
        policy = ThresholdPolicy(_sleep_count(bbar, params))
        pi_g = stationary(params).good
        if bbar >= pi_g:
            assert policy.never_harvest
            return
        n = policy.sleep_slots
        # n is the first sleep count whose wake-up belief clears the bar
        assert belief_after_failure_and_sleep(n, params) >= bbar - 1e-9
        if n > 0:
            assert belief_after_failure_and_sleep(n - 1, params) < bbar + 1e-9


class TestPolicyValueLinearSystem:
    def test_myopic_gamma_zero(self):
        # 1e-300 also rounds 1 - gamma to 1
        for gamma in (0.0, 1e-300):
            cfg = RewardConfig(r1=10.0, r0=1.0, gamma=gamma)
            value = policy_value_linear_system(3, PARAMS, cfg)
            assert value.v_good == pytest.approx((1.0 - PARAMS.p) * 11.0 - 1.0, abs=1e-12)
            assert optimal_sleep_time(PARAMS, cfg)[0] == ThresholdPolicy(0)

    @given(valid_params(), st.integers(0, 40))
    @settings(max_examples=100)
    def test_fail_value_is_discounted_wake_value(self, params, n):
        value = policy_value_linear_system(n, params, CFG)
        assert value.v_fail == pytest.approx(CFG.gamma**n * value.v_wake, abs=1e-10)

    @given(valid_params(), st.integers(0, 40))
    @settings(max_examples=100)
    def test_closed_form_ratio_equals_system_solution(self, params, n):
        # the closed form, at one n and inside the scan, must agree with
        # a direct float solve of the 3x3 system
        sol = linear_system_values(n, params, CFG)
        terms = _discount_terms(np.arange(n + 1), CFG.gamma)
        v_good, v_wake = _policy_values(terms, params, CFG)
        scan = PolicyValue(float(v_good[n]), float(terms[3][n] * v_wake[n]), float(v_wake[n]))
        for value in (policy_value_linear_system(n, params, CFG), scan):
            assert value.v_good == pytest.approx(sol.v_good, rel=1e-10, abs=1e-10)
            assert value.v_fail == pytest.approx(sol.v_fail, rel=1e-10, abs=1e-10)
            assert value.v_wake == pytest.approx(sol.v_wake, rel=1e-10, abs=1e-10)

    @given(edge_problems(), st.integers(0, 20_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_decimal_oracle_at_edges(self, problem, n):
        params, cfg = problem
        value = policy_value_linear_system(n, params, cfg)
        assert_values_exact(value, decimal_policy_values(n, params, cfg), n, cfg)

    def test_monte_carlo_oracle(self):
        # simulated discounted returns of the sleep-n policy started at
        # the post-success belief match the linear system within 3 sigma
        params = GEParams(p=0.2667, q=0.4)
        rng = np.random.default_rng(2024)
        for n in (0, 1, 2, 5):
            sol = policy_value_linear_system(n, params, CFG)
            mean, se = mc_policy_value(
                params, CFG, sleep_slots=n, episodes=40_000, horizon=2_000,
                seed=int(rng.integers(2**31)),
            )
            assert abs(mean - sol.v_good) < 3.0 * se


class TestOptimalSleepTime:
    def test_reference_point(self):
        params = from_burst_parameterization(0.6, 2.5)
        policy, value = optimal_sleep_time(params, CFG)
        assert policy.sleep_slots == 1
        assert value.v_good > 0.0

    def test_local_optimality(self):
        params = from_burst_parameterization(0.6, 2.5)
        policy, value = optimal_sleep_time(params, CFG)
        n = policy.sleep_slots
        for other in (n - 1, n + 1):
            if other >= 0:
                assert value.v_good >= policy_value_linear_system(other, params, CFG).v_good

    def test_beats_always_harvest(self):
        params = from_burst_parameterization(0.6, 2.5)
        _, value = optimal_sleep_time(params, CFG)
        assert value.v_good >= policy_value_linear_system(0, params, CFG).v_good

    def test_never_harvest_region(self):
        # expensive failures and scarce energy: harvesting never pays
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
        params = from_burst_parameterization(pi_g=0.2, t_b=10.0)
        policy, value = optimal_sleep_time(params, cfg)
        assert policy.never_harvest
        assert value.v_good == 0.0

    def test_never_harvest_with_profitable_success_belief(self):
        # harvesting pays only from the post-success belief, which is
        # unreachable without harvesting below the threshold first
        params = GEParams(p=0.05, q=0.05)
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
        policy, _ = optimal_sleep_time(params, cfg)
        assert policy.never_harvest
        # the naive sign-of-best-value test would say otherwise
        v_good, _, _ = scan_values(params, cfg)
        assert float(np.max(v_good)) > 0.0

    @given(
        pi_g=st.floats(0.02, 0.6),
        t_b=st.floats(1.1, 40.0),
        rewards=st.sampled_from(REWARDS),
        gamma=st.floats(0.5, 0.995),
    )
    @example(pi_g=0.097, t_b=20.0, rewards=(10.0, 10.0), gamma=0.99)  # v_good 1.467, not 0
    @settings(max_examples=60, deadline=None)
    def test_never_cell_values_match_value_iteration(self, pi_g, t_b, rewards, gamma):
        # a never cell stops harvesting at its first failure, but from the
        # post-success belief harvesting on may still pay
        q = 1.0 / t_b
        p = q * (1.0 - pi_g) / pi_g
        assume(is_valid_chain(p, q))
        params = GEParams(p=p, q=q)
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        policy, value = optimal_sleep_time(params, cfg)
        assume(policy.never_harvest)
        vi = solve(params, cfg, VISettings(epsilon=1e-9)).value
        assert value.v_fail == value.v_wake == 0.0
        assert abs(vi.value(params.q)) <= 1e-9
        assert value.v_good >= 0.0
        assert abs(value.v_good - vi.value(1.0 - params.p)) <= 1e-9 + 1e-12 * value.v_good

    def test_never_cell_far_from_mixing(self):
        # p = q = 1e-12: the chain almost never leaves the good state
        params = GEParams(p=1e-12, q=1e-12)
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.99)
        policy, value = optimal_sleep_time(params, cfg)
        assert policy.never_harvest
        assert value.v_good == pytest.approx(1000.0, rel=1e-9)

    @given(edge_problems())
    @settings(max_examples=60, deadline=None)
    def test_argmax_matches_decimal_oracle_at_edges(self, problem):
        # N is the exact argmax over a +-6 window unless the exact values
        # tie within 1e-12, and the reported values are exact to 1e-12
        params, cfg = problem
        policy, value = optimal_sleep_time(params, cfg)
        if policy.never_harvest:
            _, _, v_wake = scan_values(params, cfg)
            peak = int(np.argmax(v_wake))
            for n in range(max(0, peak - 6), peak + 7):
                (_, _, wake), (_, _, scale) = decimal_policy_values(n, params, cfg)
                assert wake <= Decimal("1e-14") * scale
            return
        n = policy.sleep_slots
        window = {m: decimal_policy_values(m, params, cfg) for m in range(max(0, n - 6), n + 7)}
        best = max(window, key=lambda m: window[m][0][0])
        (top, _, _), (top_scale, _, _) = window[best]
        (v_n, _, _), (scale_n, _, _) = window[n]
        assert top - v_n <= Decimal("1e-12") * abs(top) + Decimal("1e-14") * (top_scale + scale_n), (n, best)
        assert_values_exact(value, window[n], n, cfg)

    def test_far_corner_reproducer(self):
        # p + q = 1.4e-6 and 1 - gamma = 2e-8: a scan that formed
        # 1 - gamma^(n+1) and c^(n+1) directly picked 448
        params = GEParams(p=4e-7, q=1e-6)
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.99999998)
        policy, value = optimal_sleep_time(params, cfg)
        assert policy.sleep_slots == 446
        assert_values_exact(value, decimal_policy_values(446, params, cfg), 446, cfg)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.2069, 0.4815])
    def test_half_q_tie_goes_to_no_sleep(self, p):
        # at q = 1/2 and r0 = r1, sleeping 0 and 1 slots are worth exactly
        # the same; the tie goes to the smaller count
        params = GEParams(p=p, q=0.5)
        for r in (1.0, 10.0):
            cfg = RewardConfig(r1=r, r0=r, gamma=0.99)
            exact = [decimal_policy_values(n, params, cfg)[0][0] for n in (0, 1)]
            assert abs(exact[0] - exact[1]) <= Decimal("1e-50") * abs(exact[0])
            policy, _ = optimal_sleep_time(params, cfg)
            assert policy.sleep_slots == 0, (p, r)

    def test_learner_half_q_estimates_take_no_sleep(self):
        # equal bad-to-good and bad-to-bad counts give q = 1/2
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
        for a in range(1, 12):
            for b in range(1, 12):
                p = a / (a + b)
                if is_valid_chain(p, 0.5):
                    policy, _ = optimal_sleep_time(GEParams(p=p, q=0.5), cfg)
                    assert policy.never_harvest or policy.sleep_slots == 0, (a, b)

    @pytest.mark.parametrize(
        "flags,slots",
        [("--p 4e-7 --q 1e-6 --r1 10 --r0 1 --gamma 0.99999998", 446), ("--p 0.25 --q 0.5 --r1 10 --r0 10 --gamma 0.99", 0)],
    )
    def test_cli_policy(self, capsys, flags, slots):
        assert cli.main(["policy", *flags.split()]) == 0
        assert f"sleep_slots {slots}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("p,q,cap", [(1e-308, 1e-308, 100_000), (0.5, 5e-324, 1)])
    def test_cap_at_the_float_floor(self, p, q, cap):
        # the ratio of logs is +inf on the first chain and -inf on the second
        assert default_n_max(GEParams(p=p, q=q)) == cap

    @given(
        st.tuples(st.floats(1e-300, 0.5), st.floats(1e-300, 0.5)).filter(lambda pq: is_valid_chain(*pq))
        | st.sampled_from([(1e-300, 1e-300), (0.5, 1e-310), (1e-6, 1e-6), (0.3, 0.3)])
    )
    @settings(max_examples=200, deadline=None)
    def test_cap_is_the_rounded_ratio_where_it_is_finite(self, pq):
        params = GEParams(*pq)
        x = math.log(1e-12 / (params.q / (params.p + params.q))) / params.log_persistence
        assume(math.isfinite(x))
        assert default_n_max(params) == min(max(math.ceil(x) + 8, 1), 100_000)

    @given(valid_params())
    @settings(max_examples=30, deadline=None)
    def test_scan_cap_does_not_bind(self, params):
        policy, _ = optimal_sleep_time(params, CFG)
        if not policy.never_harvest:
            assert policy.sleep_slots < default_n_max(params)


class TestAgainstValueIteration:
    def test_sleep_count_matches_vi_crossover(self):
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.95)
        for pi_g, t_b in [(0.3, 4.0), (0.5, 3.0), (0.6, 2.5), (0.7, 6.0), (0.85, 12.0)]:
            params = from_burst_parameterization(pi_g, t_b)
            direct, _ = optimal_sleep_time(params, cfg)
            via_vi, _ = vi_threshold_policy(params, cfg, VISettings(epsilon=1e-6))
            assert direct == via_vi, (pi_g, t_b)

    def test_never_harvest_matches_vi_threshold(self):
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.95)
        for pi_g, t_b in [(0.2, 10.0), (0.4, 8.0), (0.8, 3.0)]:
            params = from_burst_parameterization(pi_g, t_b)
            direct, _ = optimal_sleep_time(params, cfg)
            _, bbar = vi_threshold_policy(params, cfg, VISettings(epsilon=1e-6))
            assert direct.never_harvest == (bbar >= stationary(params).good), (pi_g, t_b)


# gamma from 0 to 1 - 1e-9, both ends on purpose
GAMMAS = st.sampled_from([0.0, 1.0 - 1e-9]) | st.floats(0.0, 1.0 - 1e-9)


@st.composite
def grids(draw):
    """Ascending (pi_g, t_b) axes and a reward. Bursts of 150 slots or
    more give scans past the cache bound, and r0 above r1 gives cells
    that never harvest."""
    pi_g_axis = sorted(draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3, unique=True)))
    t_b = st.floats(1.01, 20.0) | st.floats(150.0, 3000.0)
    t_b_axis = sorted(draw(st.lists(t_b, min_size=1, max_size=4, unique=True)))
    r1, r0 = draw(st.sampled_from(REWARDS))
    return pi_g_axis, t_b_axis, RewardConfig(r1=r1, r0=r0, gamma=draw(GAMMAS))


def assert_table_matches_scans(table, cfg):
    for cell in table.cells:
        if cell.valid:
            policy, value = optimal_sleep_time(GEParams(p=cell.p, q=cell.q), cfg)
            assert cell.policy == policy, (cell.pi_g, cell.t_b)
            assert cell.v_good.hex() == value.v_good.hex(), (cell.pi_g, cell.t_b)


class TestBatchedScan:
    """``build_lookup_table`` scans a row of chains in one batch, with
    discount terms sliced from a prefix kept for one gamma; each cell
    must get the bits of a scan of its chain alone, and that scan those
    of the uncached oracle."""

    @given(grids())
    @settings(max_examples=60, deadline=None)
    def test_table_equals_scan_per_cell(self, grid):
        pi_g_axis, t_b_axis, cfg = grid
        assert_table_matches_scans(build_lookup_table(pi_g_axis, t_b_axis, cfg), cfg)

    def test_table_with_never_harvest_and_uncached_cells(self):
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.999)
        table = build_lookup_table([0.1, 0.5, 0.9], [2.0, 20.0, 500.0, 3000.0], cfg)
        valid = [c for c in table.cells if c.valid]
        assert any(c.policy.never_harvest for c in valid)
        assert any(not c.policy.never_harvest for c in valid)
        assert any(default_n_max(GEParams(p=c.p, q=c.q)) >= _CACHED_COUNTS for c in valid)
        assert_table_matches_scans(table, cfg)

    @given(st.lists(valid_params() | edge_problems().map(lambda pc: pc[0]), min_size=1, max_size=4), GAMMAS, GAMMAS)
    @settings(max_examples=60, deadline=None)
    def test_cached_scan_equals_uncached_as_gamma_switches(self, chains, g1, g2):
        for gamma in (g1, g2, g1):
            cfg = RewardConfig(r1=10.0, r0=1.0, gamma=gamma)
            batch = _scan(chains, cfg)
            for params, (policy, value) in zip(chains, batch):
                ref_policy, ref_value = reference_sleep_time(params, cfg)
                assert policy == ref_policy
                assert bits(value) == bits(ref_value)
                alone_policy, alone_value = optimal_sleep_time(params, cfg)
                assert alone_policy == policy and bits(alone_value) == bits(value)

    def test_prefix_grows_is_reused_and_resets_with_gamma(self):
        short = GEParams(p=0.01, q=0.3)  # harvests under both gammas
        long = from_burst_parameterization(0.1, 1e5)  # 100,001 counts
        cfg = RewardConfig(r1=1.0, r0=30.0, gamma=0.999)
        other = RewardConfig(r1=1.0, r0=30.0, gamma=0.99)
        # the second CI slow chain: y is its top, so no bound stops it
        capped = (GEParams(p=1e-6, q=1e-6), RewardConfig(r1=10.0, r0=10.0, gamma=0.99))
        _prefix.clear()
        seen = []
        for params, c in ((short, cfg), (long, cfg), (short, cfg), (short, other), (long, other), capped):
            policy, value = optimal_sleep_time(params, c)
            ref_policy, ref_value = reference_sleep_time(params, c)
            assert policy == ref_policy and bits(value) == bits(ref_value)
            ((gamma, terms),) = _prefix.items()
            assert gamma == c.gamma
            assert not any(t.flags.writeable for t in terms)
            assert policy.never_harvest or policy.sleep_slots < len(terms[0]) <= 100_001
            seen.append(terms)
        # under gamma 0.999 the long chain's best count lies past the
        # first 4096, so its rounds grow the prefix to its cap; under 0.99
        # it never harvests, which its first round proves
        assert optimal_sleep_time(long, cfg)[0].sleep_slots > _CACHED_COUNTS
        assert optimal_sleep_time(long, other)[0].never_harvest
        assert [len(terms[0]) for terms in seen] == [_CACHED_COUNTS, 100_001, 100_001, _CACHED_COUNTS, _CACHED_COUNTS, 100_001]
        assert seen[2] is seen[1] and seen[4] is seen[3]

    def test_grid_without_valid_cells_builds(self):
        # p + q = q / pi_g >= 1 on every cell: nothing to scan
        assert _scan([], CFG) == []
        table = build_lookup_table([0.1, 0.2], [1.5, 3.0], CFG)
        assert [c.valid for c in table.cells] == [False] * 4


@st.composite
def mixed_grids(draw):
    """Ascending axes whose cells mix valid chains with every kind of
    invalid one: p >= 1 (pi_g small against t_b), 1 - p <= q with p < 1,
    and (0.5, 2), where 1 - p = q exactly."""
    pi_g = st.sampled_from([0.5, 0.01, 0.04]) | st.floats(0.005, 0.995)
    t_b = st.sampled_from([2.0, 1.5, 60.0]) | st.floats(1.001, 80.0)
    pi_g_axis = sorted(draw(st.lists(pi_g, min_size=1, max_size=5, unique=True)))
    t_b_axis = sorted(draw(st.lists(t_b, min_size=1, max_size=5, unique=True)))
    r1, r0 = draw(st.sampled_from(REWARDS))
    return pi_g_axis, t_b_axis, RewardConfig(r1=r1, r0=r0, gamma=draw(GAMMAS))


class TestTableCells:
    """Each cell of a table is made once: its (p, q) and its validity
    from one call each, its policy and v_good from the batch scan, which
    must agree with the per-cell statements of all three."""

    @given(mixed_grids())
    @example(([0.04, 0.4, 0.5, 0.9], [1.5, 2.0, 60.0], RewardConfig(r1=10.0, r0=10.0, gamma=0.99)))
    @settings(max_examples=80, deadline=None)
    def test_cells_equal_their_per_cell_statements(self, grid):
        pi_g_axis, t_b_axis, cfg = grid
        table = build_lookup_table(pi_g_axis, t_b_axis, cfg)
        assert len(table.cells) == len(pi_g_axis) * len(t_b_axis)
        for index, cell in enumerate(table.cells):
            pi_g, t_b = pi_g_axis[index // len(t_b_axis)], t_b_axis[index % len(t_b_axis)]
            p, q = burst_escape_probabilities(pi_g, t_b)
            assert (cell.pi_g, cell.t_b) == (pi_g, t_b)
            assert (cell.p.hex(), cell.q.hex()) == (p.hex(), q.hex())
            assert cell.valid == is_valid_chain(p, q)
            if cell.valid:
                policy, value = optimal_sleep_time(GEParams(p=p, q=q), cfg)
                assert cell.policy == policy
                assert cell.v_good.hex() == value.v_good.hex()
            else:
                assert cell.policy is None and cell.v_good is None
        # cells that pick the same count share one policy object
        valid = [c.policy for c in table.cells if c.valid]
        assert len({id(policy) for policy in valid}) == len(set(valid))
        assert LookupTable.from_json_dict(table.to_json_dict()) == table

    def test_invalid_cells_of_each_kind(self):
        table = build_lookup_table([0.04, 0.4, 0.5], [2.0, 60.0], CFG)
        p_at_least_one, p_below_one, boundary = table.cells[::2]
        assert p_at_least_one.p >= 1.0 and not p_at_least_one.valid
        assert p_below_one.p < 1.0 and 1.0 - p_below_one.p < p_below_one.q and not p_below_one.valid
        assert 1.0 - boundary.p == boundary.q and not boundary.valid
        assert all(c.valid and c.policy is not None for c in table.cells[1::2])

    def test_cells_and_values_are_immutable_rows(self):
        cell = LookupCell(pi_g=0.6, t_b=2.5, p=0.26666666666666666, q=0.4, policy=ThresholdPolicy(1), v_good=1.5)
        never = LookupCell(pi_g=0.1, t_b=2.0, p=4.5, q=0.5, policy=None, v_good=None)
        assert cell.valid and not never.valid
        assert cell._fields == ("pi_g", "t_b", "p", "q", "policy", "v_good")
        value = PolicyValue(v_good=3.0, v_fail=1.0, v_wake=2.0)
        assert (value.v_good, value.v_fail, value.v_wake) == (3.0, 1.0, 2.0)
        for row, field in ((cell, "policy"), (value, "v_good")):
            with pytest.raises(AttributeError):
                setattr(row, field, None)
        assert cell == LookupCell(0.6, 2.5, 0.26666666666666666, 0.4, ThresholdPolicy(1), 1.5)
        assert hash(value) == hash(PolicyValue(3.0, 1.0, 2.0))


# gamma at both ends, the middle, and near 1 where slow chains scan far
STOP_GAMMAS = st.sampled_from([0.0, 1e-16, 0.5, 0.99, 0.9999])
# at q = 1/2 and r0 = r1 the sleep counts 0 and 1 tie exactly
TIE_P = (0.1, 0.25, 0.2069, 0.4815)
# p = q just under 1/2: v_good is 1e-11 at gamma 1 - 1e-8 and its terms
# cancel from ~5, so float values near the never-harvest boundary keep
# no relative precision
BOUNDARY = GEParams(p=0.4999999999995, q=0.4999999999995)


@st.composite
def scan_chains(draw):
    """A chain of a kind a scan meets: a standard-grid cell, a slowly
    mixing chain (p + q down to 1e-7, up to the 100,001-count cap), one
    whose counts 0 and 1 tie exactly under r0 = r1, one that mixes
    within a slot (under 32 counts in all), or the boundary chain."""
    kind = draw(st.sampled_from(["grid", "slow", "tie", "fast", "boundary"]))
    if kind == "tie":
        return GEParams(p=draw(st.sampled_from(TIE_P)), q=0.5)
    if kind == "boundary":
        return BOUNDARY
    pi_g = draw(st.floats(0.05, 0.95))
    if kind == "grid":
        s = 1.0 / draw(st.floats(1.1, 20.0)) / pi_g
    elif kind == "slow":
        s = 10.0 ** draw(st.floats(-7.0, -3.0))
    else:
        s = 1.0 - 10.0 ** draw(st.floats(-12.0, -1.0))
    p, q = s * (1.0 - pi_g), s * pi_g
    assume(is_valid_chain(p, q))
    return GEParams(p=p, q=q)


def priced_counts(monkeypatch) -> list[int]:
    """Counts the scan prices from here on, as a list of one running total."""
    total = [0]

    def counted(terms, params, cfg):
        v_good, v_wake = _policy_values(terms, params, cfg)
        total[0] += v_good.size
        return v_good, v_wake

    monkeypatch.setattr("rfharvest.threshold._policy_values", counted)
    return total


class TestCertifiedStop:
    """``_scan`` prices a batch in rounds and stops each chain once
    ``_later_bound`` proves no later count can change its result; the
    one-pass scan of the full range (``reference_sleep_time``) stays the
    oracle, bit for bit."""

    @given(st.lists(scan_chains(), min_size=1, max_size=5), STOP_GAMMAS, st.sampled_from(REWARDS))
    @example([BOUNDARY, GEParams(p=1e-6, q=1e-6), GEParams(p=0.25, q=0.5)], 0.99, (10.0, 10.0))
    @example([GEParams(p=1e-6, q=1e-6)] * 2, 0.99, (10.0, 10.0))  # y is the top: both run to the cap
    @example([GEParams(p=0.05, q=0.05), GEParams(p=0.2, q=0.1)], 0.99, (1.0, 10.0))  # never cells
    @settings(max_examples=60, deadline=None)
    def test_scan_equals_full_scan_bit_for_bit(self, chains, gamma, rewards):
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        for params, (policy, value) in zip(chains, _scan(chains, cfg)):
            ref_policy, ref_value = reference_sleep_time(params, cfg)
            assert policy == ref_policy and bits(value) == bits(ref_value), params
            alone_policy, alone_value = optimal_sleep_time(params, cfg)
            assert alone_policy == policy and bits(alone_value) == bits(value)

    @pytest.mark.parametrize("chains", [[BOUNDARY], [BOUNDARY, GEParams(p=1e-6, q=1e-6)]], ids=["alone", "batch"])
    def test_never_harvest_boundary(self, chains):
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=1.0 - 1e-8)
        for params, (policy, value) in zip(chains, _scan(chains, cfg)):
            ref_policy, ref_value = reference_sleep_time(params, cfg)
            assert policy == ref_policy and bits(value) == bits(ref_value)

    @given(edge_problems())
    @example((BOUNDARY, RewardConfig(r1=10.0, r0=10.0, gamma=1.0 - 1e-8)))
    @example((GEParams(p=1e-6, q=1e-6), RewardConfig(r1=10.0, r0=10.0, gamma=0.9999)))
    @settings(max_examples=40, deadline=None)
    def test_margin_against_decimal_oracle(self, problem):
        # the stop needs every later float v_good at most upper + margin;
        # the bound on the exact values and the rounding of the float
        # ones each stay under 1% of the margin, near the never-harvest
        # boundary too (a 300-problem scan of this space: under 0.05%)
        params, cfg = problem
        n_max = default_n_max(params)
        terms = _discount_terms(np.arange(n_max + 1), cfg.gamma)
        v_good, v_wake = _policy_values(terms, params, cfg)
        fields = _chain_fields([params], [n_max + 1], cfg)
        for m in sorted({0, 1, 31, 200, n_max // 2, n_max} & set(range(n_max + 1))):
            upper, margin, never = (float(x[0]) for x in _later_bound(v_good[m : m + 1], terms[2][m], terms[1][m], fields, cfg))
            assert margin > 0.0
            for n in sorted({m, m + 1, 2 * m + 1, 4 * m + 3, n_max} & set(range(m, n_max + 1))):
                (exact_good, _, exact_wake), _ = decimal_policy_values(n, params, cfg)
                assert exact_good - Decimal(upper) <= Decimal(margin) / 100, (m, n)
                assert abs(Decimal(float(v_good[n])) - exact_good) <= Decimal(margin) / 100, (m, n)
                if never:
                    assert exact_wake < 0 and v_wake[n] < 0.0, (m, n)

    @pytest.mark.parametrize("top", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wake_top", [0.0, 1.0, math.nan, math.inf])
    def test_non_finite_top_settles_nothing(self, top, wake_top):
        # harvesting is settled, and the bound lies far below, but a NaN
        # or infinite top proves nothing
        settled = _settled(np.array([top]), np.array([wake_top]), np.array([-1e300]), np.array([0.0]), np.array([True]))
        assert not settled.any()

    def test_nan_bound_settles_nothing(self):
        nan = np.array([math.nan])
        assert not _settled(np.array([1.0]), np.array([1.0]), nan, nan, np.array([False])).any()
        assert not _settled(np.array([1.0]), np.array([1.0]), np.array([0.0]), nan, np.array([False])).any()

    def test_proven_never_settles_without_a_top(self):
        # every v_wake so far negative and none later can be: never
        args = (np.array([math.nan]), np.array([-1.0]), np.array([math.nan]), np.array([math.nan]))
        assert _settled(*args, np.array([True])).all()
        assert not _settled(*args, np.array([False])).any()

    @pytest.mark.parametrize(
        "rewards,overflows", [((1e308, 1e308), True), ((1e307, 1e307), True), ((1e307, 1e308), False), ((1e306, 1e306), False)]
    )
    def test_values_near_the_float_range(self, rewards, overflows):
        # values past the float range raise; finite ones are the full scan's
        chains = [GEParams(p=0.4 * 2 / 3, q=0.4), GEParams(p=0.05, q=0.475), BOUNDARY]
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=0.99)
        with np.errstate(all="ignore"):
            refs = [reference_sleep_time(params, cfg) for params in chains]
            finite = all(math.isfinite(v.v_good) and math.isfinite(v.v_wake) for _, v in refs)
            assert finite != overflows
            if overflows:
                with pytest.raises(OverflowError, match="float range"):
                    _scan(chains, cfg)
                with pytest.raises(OverflowError, match="float range"):
                    optimal_sleep_time(chains[0], cfg)
                return
            for (policy, value), (ref_policy, ref_value) in zip(_scan(chains, cfg), refs):
                assert policy == ref_policy and bits(value) == bits(ref_value)

    def test_infinite_top_with_a_finite_pick(self):
        # some later count overflows to inf, so the band is NaN and count
        # 0, whose values are finite, is picked; no bound may stop first
        params = GEParams(p=0.533805790498459, q=0.13897194822246156)
        cfg = RewardConfig(r1=3.848070246501975e307, r0=8.513893723163215e306, gamma=0.99)
        with np.errstate(all="ignore"):
            assert scan_values(params, cfg)[0].max() == math.inf
            ref_policy, ref_value = reference_sleep_time(params, cfg)
            assert ref_policy == ThresholdPolicy(0)
            for policy, value in _scan([params, params], cfg) + _scan([params], cfg):
                assert policy == ref_policy and bits(value) == bits(ref_value)

    def test_table_document_refuses_non_finite_v_good(self):
        doc = build_lookup_table([0.6], [2.5], CFG).to_json_dict()
        for bad in (math.inf, -math.inf, math.nan):
            doc["cells"][0]["v_good"] = bad
            with pytest.raises(ValueError, match="not a finite number"):
                LookupTable.from_json_dict(doc)

    def test_standard_grid_stops_early(self, monkeypatch):
        # the full scans price 54,594 counts per reward setting
        pi_g_axis, t_b_axis = grid_axis(*STANDARD_PI_G), grid_axis(*STANDARD_T_B)
        for r1, r0 in REWARDS:
            total = priced_counts(monkeypatch)
            build_lookup_table(pi_g_axis, t_b_axis, RewardConfig(r1=r1, r0=r0, gamma=0.99))
            assert total[0] < 15_000, (r1, r0)

    @pytest.mark.parametrize("gamma,slots,counts", [(0.9999, 1448, 24_544), (0.99, 1586, 100_001)])
    def test_slow_lone_chain(self, monkeypatch, gamma, slots, counts):
        # at gamma 0.9999 the bound stops the scan; at 0.99 y is the top,
        # nothing proves a stop and the scan runs to the cap
        total = priced_counts(monkeypatch)
        policy, _ = optimal_sleep_time(GEParams(p=1e-6, q=1e-6), RewardConfig(r1=10.0, r0=10.0, gamma=gamma))
        assert policy.sleep_slots == slots
        assert total[0] == counts

    def test_never_harvest_chain_settles_in_its_first_round(self, monkeypatch):
        # at gamma 0 every v_wake is 11 b - 1, and b at the cap (100,000
        # counts) is 0.0906, far below q / (p + q) = 1/2: the bound on the
        # belief at the cap proves "never" after the first 32 counts,
        # where the bound on q / (p + q) priced all 100,001
        total = priced_counts(monkeypatch)
        params, cfg = GEParams(p=1e-6, q=1e-6), RewardConfig(r1=10.0, r0=1.0, gamma=0.0)
        policy, value = optimal_sleep_time(params, cfg)
        assert total[0] == 32
        ref_policy, ref_value = reference_sleep_time(params, cfg)
        assert policy == ref_policy == ThresholdPolicy(None) and bits(value) == bits(ref_value)


def best_count(v_good: np.ndarray, v_wake: np.ndarray) -> int | None:
    """The pick rule on one chain's scanned values, stated per chain: the
    oracle of ``_ties``. The sleep count, None for never; a NaN
    best picks 0, as argmax does on an all-False mask."""
    if float(v_wake.max()) < 0.0:
        return None
    top = v_good.max()
    return int((v_good >= top - _TIE_BAND * abs(top)).argmax())


def picks_per_segment(segments) -> tuple[list, list]:
    """The sleep counts the scan's pick rule gives segments set as rows of
    one block, padded past their ends with -inf as the scan masks counts
    past a chain's cap: ``_ties`` against each row's top, and the never
    test on each row's top of v_wake. Also those ``best_count`` gives
    each segment alone; each segment is a (v_good, v_wake) pair of
    equal-length lists."""
    width = max(len(v_good) for v_good, _ in segments)
    v_good, v_wake = (
        np.array([seg[k] + [-INF] * (width - len(seg[k])) for seg in segments], dtype=float) for k in (0, 1)
    )
    ties = _ties(v_good, v_good.max(axis=1))
    never = v_wake.max(axis=1) < 0.0
    got = [None if n else int(i) for n, i in zip(never.tolist(), ties.argmax(axis=1).tolist())]
    alone = [best_count(np.array(g, dtype=float), np.array(w, dtype=float)) for g, w in segments]
    return got, alone


NAN, INF = math.nan, math.inf
EDGE = 1.0 - _TIE_BAND  # the band's edge under a top of 1.0
NEG_EDGE = -2.0 - _TIE_BAND * 2.0  # and under a top of -2.0
ONE = [1.0, 1.0]


# pick-rule inputs: ordinary values, signed zeros, infinities, NaN and
# values at and next to the band edge under a top of 1.0
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, INF, -INF, NAN, EDGE, np.nextafter(EDGE, -INF)]) | st.floats(-3.0, 3.0)


def from_burst_parts(pi_g: float, t_b: float) -> tuple[float, float]:
    """(p, q) of ``from_burst_parameterization``, without the validity check."""
    q = 1.0 / t_b
    return q * (1.0 - pi_g) / pi_g, q


class TestSegmentPicks:
    """``_ties`` states the pick rule once for one chain or many;
    on any values it must pick what ``best_count`` picks per segment."""

    @pytest.mark.parametrize(
        "segments,expected",
        [
            ([([1.0, NAN, 2.0], [1.0, 1.0, 1.0])], [0]),  # NaN in v_good: count 0
            ([([1.0, 3.0], [NAN, -1.0])], [1]),  # NaN in v_wake: not never
            ([([5.0, 6.0], [-1.0, -2.0])], [None]),  # all-negative v_wake
            ([([-1.0, -0.0, 0.0], [-0.0, -0.0, -1.0])], [1]),  # -0.0 wake top, +-0.0 tops
            ([([0.0, -0.0], ONE), ([-0.0, 0.0], ONE)], [0, 0]),
            ([([EDGE, 1.0], ONE)], [0]),  # exactly at the band edge
            ([([np.nextafter(EDGE, -INF), 1.0], ONE)], [1]),  # just below it
            ([([NEG_EDGE, -2.0], ONE), ([np.nextafter(NEG_EDGE, -INF), -2.0], ONE)], [0, 1]),
            ([([0.5, 3.0], ONE), ([3.0, 0.5, 3.0], [1.0] * 3)], [1, 0]),  # equal values straddle
            ([([1.0, 2.0], ONE), ([5.0, 5.0], ONE), ([4.0, 5.0], ONE)], [1, 0, 1]),
            ([([INF, 1.0], ONE), ([1.0, INF], ONE), ([-INF, -INF], ONE)], [0, 0, 0]),  # NaN and -inf bands
            ([([2.0, 1.0], [-1.0, -1.0]), ([1.0, 2.0], ONE), ([NAN, 1.0], [-1.0, NAN])], [None, 1, 0]),
        ],
    )
    def test_cases(self, segments, expected):
        with np.errstate(invalid="ignore"):
            got, alone = picks_per_segment(segments)
        assert got == alone == expected

    @given(
        st.lists(
            st.integers(1, 5).flatmap(
                lambda size: st.tuples(*[st.lists(VALUES, min_size=size, max_size=size) for _ in range(2)])
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_per_segment_oracle(self, segments):
        with np.errstate(invalid="ignore"):
            got, alone = picks_per_segment(segments)
        assert got == alone

    @given(
        st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(1.1, 20.0)), max_size=5),
        st.sampled_from([(0.5, 5000.0), (0.95, 5000.0)]),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_mixed_batch_equals_scans_alone(self, cells, long_cell, data):
        # under r0 = 10 r1 (0.2, 10) never harvests, (0.9, 2) sleeps 3
        # slots and the long chain scans past the cached 4096 counts
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
        cells = [(0.2, 10.0), (0.9, 2.0), long_cell, *cells]
        chains = [from_burst_parameterization(*c) for c in cells if is_valid_chain(*from_burst_parts(*c))]
        chains = data.draw(st.permutations(chains))
        assert default_n_max(from_burst_parameterization(*long_cell)) >= _CACHED_COUNTS
        batch = _scan(chains, cfg)
        assert any(policy.never_harvest for policy, _ in batch)
        assert any(not policy.never_harvest for policy, _ in batch)
        for params, (policy, value) in zip(chains, batch):
            ref_policy, ref_value = reference_sleep_time(params, cfg)
            assert policy == ref_policy and bits(value) == bits(ref_value)


@pytest.fixture(scope="module")
def table():
    cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.99)
    return build_lookup_table(
        pi_g_axis=[0.2, 0.4, 0.6, 0.8],
        t_b_axis=[1.5, 3.0, 6.0, 12.0],
        cfg=cfg,
    )


class TestLookupTable:

    def test_row_major_order_and_shape(self, table):
        assert len(table.cells) == 16
        assert table.cells[0].pi_g == 0.2 and table.cells[0].t_b == 1.5
        assert table.cells[1].pi_g == 0.2 and table.cells[1].t_b == 3.0
        assert table.cells[4].pi_g == 0.4

    def test_invalid_region_matches_constraint(self, table):
        for cell in table.cells:
            assert cell.valid == (0.0 < cell.p < 1.0 and 1.0 - cell.p > cell.q)

    def test_sleep_count_monotone_in_burst_length(self, table):
        # longer bad bursts never shorten the optimal sleep
        for i in range(len(table.pi_g_axis)):
            prev = None
            for j in range(len(table.t_b_axis)):
                cell = table.cell(i, j)
                if not cell.valid or cell.policy.never_harvest:
                    continue
                if prev is not None:
                    assert cell.policy.sleep_slots >= prev
                prev = cell.policy.sleep_slots

    def test_sleep_count_monotone_in_good_probability(self, table):
        for j in range(len(table.t_b_axis)):
            prev = None
            for i in range(len(table.pi_g_axis)):
                cell = table.cell(i, j)
                if not cell.valid or cell.policy.never_harvest:
                    continue
                if prev is not None:
                    assert cell.policy.sleep_slots <= prev
                prev = cell.policy.sleep_slots

    def test_csv_shape(self, table):
        out = io.StringIO()
        table.write_csv(out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == "pi_g,t_b,p,q,n_or_never,v_good"
        assert len(lines) == 17

    def test_json_round_trip(self, table):
        out = io.StringIO()
        table.dump_json(out)
        loaded = LookupTable.load_json(io.StringIO(out.getvalue()))
        assert loaded == table

    def test_valid_is_having_a_policy_on_default_grid_and_round_trip(self):
        table = build_lookup_table(grid_axis(*STANDARD_PI_G), grid_axis(*STANDARD_T_B), CFG)
        doc = table.to_json_dict()
        loaded = LookupTable.from_json_dict(json.loads(json.dumps(doc)))
        assert loaded == table
        for cells in (table.cells, loaded.cells):
            assert [c.valid for c in cells] == [c.policy is not None for c in cells]
            assert [c.valid for c in cells] == [d["valid"] for d in doc["cells"]]
        assert any(c.valid for c in table.cells) and not all(c.valid for c in table.cells)

    def test_lookup_hits_and_misses(self, table):
        cell = table.cell(2, 1)  # pi_g=0.6, t_b=3.0
        assert table.lookup(cell.p, cell.q) == cell.policy
        assert table.lookup(0.7, 0.4) is None  # violates 1 - p > q

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=25), st.data())
    @settings(max_examples=300, deadline=None)
    def test_nearest_index_matches_argmin(self, axis, data):
        # ties, including exact midpoints and repeated axis values, go to
        # the first minimum as with np.argmin
        axis = tuple(sorted(axis))
        mids = [(a + b) / 2 for a, b in zip(axis, axis[1:])]
        x = data.draw(st.sampled_from(mids) if mids and data.draw(st.booleans()) else st.floats(0.0, 60.0))
        assert _nearest_index(axis, x) == int(np.argmin(np.abs(np.asarray(axis) - x)))

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=25, unique=True), st.lists(st.floats(-10.0, 70.0)))
    @settings(max_examples=300, deadline=None)
    def test_nearest_index_matches_scan(self, axis, points):
        # the binary search returns what the linear scan it replaced
        # returned: at random points, every axis point, every midpoint
        # and points outside the axis
        axis = tuple(sorted(axis))
        mids = [(a + b) / 2 for a, b in zip(axis, axis[1:])]
        outside = [axis[0] - 1.0, axis[-1] + 1.0, -math.inf, math.inf]
        for x in [*points, *axis, *mids, *outside]:
            assert _nearest_index(axis, x) == min(range(len(axis)), key=lambda i: abs(axis[i] - x))

    def test_nearest_index_exact_midpoint_takes_first(self):
        assert _nearest_index((1.0, 2.0, 3.0), 2.5) == 1
        assert _nearest_index((1.0, 1.0, 3.0), 1.0) == 0
        # distinct points at one float distance: 1e17 - 1 and 1e17 - 2 both round to 1e17
        assert _nearest_index((1.0, 2.0), 1e17) == 0

    def test_axis_validation(self):
        cfg = RewardConfig(r1=1.0, r0=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            build_lookup_table([1.2], [2.0], cfg)
        with pytest.raises(ValueError):
            build_lookup_table([0.5], [0.9], cfg)
        # a JSON copy of the table must load, and loading checks the order
        with pytest.raises(ValueError, match="pi_g_axis must be nonempty and strictly ascending"):
            build_lookup_table([0.6, 0.4], [2.0], cfg)
        with pytest.raises(ValueError, match="t_b_axis must be nonempty and strictly ascending"):
            build_lookup_table([0.5], [2.0, 2.0], cfg)
        # a value outside the domain is refused before the order is checked
        with pytest.raises(ValueError, match="pi_g must lie strictly inside"):
            build_lookup_table([0.6, 0.4, 1.2], [2.0], cfg)
        with pytest.raises(ValueError, match="t_b must be a finite number above 1"):
            build_lookup_table([0.5], [3.0, 2.0, 0.9], cfg)
        with pytest.raises(ValueError, match="t_b must be a finite number above 1"):
            build_lookup_table([0.6, 0.4], [2.0, math.inf], cfg)


def test_threshold_policy_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy(-1)
    assert ThresholdPolicy(None).never_harvest
    assert ThresholdPolicy(None).label() == "never"
    assert ThresholdPolicy(3).label() == "3"
