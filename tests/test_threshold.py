"""Tests for the closed-form threshold policies and lookup tables."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.beliefs import RewardConfig, belief_after_failure_and_sleep
from rfharvest.gilbert_elliott import GEParams, from_burst_parameterization, stationary
from rfharvest.harness import mc_policy_value
from rfharvest.threshold import (
    LookupTable,
    ThresholdPolicy,
    build_lookup_table,
    default_n_max,
    optimal_sleep_time,
    policy_value_linear_system,
    sleep_time_from_threshold,
    vi_threshold_policy,
    _nearest_index,
    _scan_policy_values,
)
from rfharvest.value_iteration import VISettings

from test_gilbert_elliott import valid_params

PARAMS = GEParams(p=0.2, q=0.3)
CFG = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)


class TestSleepTimeFromThreshold:
    def test_direct_evaluation(self):
        # (0.3 - 0.5*0.45)/0.3 = 0.25, log_0.5(0.25) = 2, so N = 1
        policy = sleep_time_from_threshold(0.45, PARAMS)
        assert policy.sleep_slots == 1

    def test_threshold_at_stationary_never_harvests(self):
        pi_g = stationary(PARAMS).good
        assert sleep_time_from_threshold(pi_g, PARAMS).never_harvest
        assert sleep_time_from_threshold(0.99, PARAMS).never_harvest

    def test_threshold_below_q_means_no_sleep(self):
        assert sleep_time_from_threshold(0.3, PARAMS).sleep_slots == 0
        assert sleep_time_from_threshold(0.05, PARAMS).sleep_slots == 0
        assert sleep_time_from_threshold(-2.0, PARAMS).sleep_slots == 0

    @given(valid_params(), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_count_matches_first_belief_clearing_threshold(self, params, bbar):
        policy = sleep_time_from_threshold(bbar, params)
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
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.0)
        value = policy_value_linear_system(3, PARAMS, cfg)
        assert value.v_good == pytest.approx((1.0 - PARAMS.p) * 11.0 - 1.0, abs=1e-12)

    @given(valid_params(), st.integers(0, 40))
    @settings(max_examples=100)
    def test_fail_value_is_discounted_wake_value(self, params, n):
        value = policy_value_linear_system(n, params, CFG)
        assert value.v_fail == pytest.approx(CFG.gamma**n * value.v_wake, abs=1e-10)

    @given(valid_params(), st.integers(0, 40))
    @settings(max_examples=100)
    def test_closed_form_ratio_equals_system_solution(self, params, n):
        # the scan's closed-form ratio must agree with the authoritative
        # 3x3 solve
        v_good, v_wake = _scan_policy_values(params, CFG, max(n, 1))
        sol = policy_value_linear_system(n, params, CFG)
        assert v_good[n] == pytest.approx(sol.v_good, rel=1e-10, abs=1e-10)
        assert v_wake[n] == pytest.approx(sol.v_wake, rel=1e-10, abs=1e-10)

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
        v_good, _ = _scan_policy_values(params, cfg, default_n_max(params))
        assert float(np.max(v_good)) > 0.0

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

    def test_nearest_index_exact_midpoint_takes_first(self):
        assert _nearest_index((1.0, 2.0, 3.0), 2.5) == 1
        assert _nearest_index((1.0, 1.0, 3.0), 1.0) == 0

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


def test_threshold_policy_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy.sleep(-1)
    assert ThresholdPolicy.never().never_harvest
    assert ThresholdPolicy.never().label() == "never"
    assert ThresholdPolicy.sleep(3).label() == "3"
