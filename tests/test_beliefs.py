"""Tests for belief updates and the reward model.

The per-step model equations below (``reward``, ``sleep_update``,
``harvest_update``, ``initial_belief``) are the oracle: the package
evaluates each of them only in closed form, and those closed forms are
checked against these step-by-step statements.
"""

import math
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.beliefs import Observation, RewardConfig, belief_after_failure_and_sleep
from rfharvest.gilbert_elliott import GEParams, stationary

from test_gilbert_elliott import valid_params


class Action(Enum):
    HARVEST = "harvest"
    SLEEP = "sleep"


def _check_belief(b: float) -> None:
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {b}")


def reward(b: float, action: Action, cfg: RewardConfig) -> float:
    """Expected immediate reward: (r0 + r1) b - r0 when harvesting, 0 asleep."""
    _check_belief(b)
    if action is Action.SLEEP:
        return 0.0
    return (cfg.r0 + cfg.r1) * b - cfg.r0


def sleep_update(b: float, params: GEParams) -> float:
    """One unobserved step: b' = q + (1 - p - q) b.

    The map is affine and contracting with factor ``persistence``,
    so repeated sleeping drives the belief to the stationary good
    probability q / (p + q).
    """
    _check_belief(b)
    return params.q + params.persistence * b


def harvest_update(outcome: Observation, params: GEParams) -> float:
    """Next-slot belief after an observed harvest: 1 - p on good, q on bad."""
    if outcome is Observation.GOOD:
        return 1.0 - params.p
    if outcome is Observation.BAD:
        return params.q
    raise ValueError("harvest_update needs an observed state, not Observation.NONE")


def initial_belief(params: GEParams) -> float:
    """Belief before any observation: the chain is assumed in steady state."""
    return stationary(params).good


class TestRewardConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(r1=0.0, r0=1.0, gamma=0.9)
        with pytest.raises(ValueError):
            RewardConfig(r1=1.0, r0=-1.0, gamma=0.9)
        with pytest.raises(ValueError):
            RewardConfig(r1=1.0, r0=1.0, gamma=1.0)

    def test_gamma_zero_allowed(self):
        assert RewardConfig(r1=1.0, r0=1.0, gamma=0.0).gamma == 0.0

    @pytest.mark.parametrize("field", ["r1", "r0"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_reward_rejected(self, field, value):
        rewards = {"r1": 1.0, "r0": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite, got {value}"):
            RewardConfig(**rewards, gamma=0.9)


class TestReward:
    def test_certain_good(self):
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.9)
        assert reward(1.0, Action.HARVEST, cfg) == pytest.approx(10.0)

    def test_certain_bad(self):
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.9)
        assert reward(0.0, Action.HARVEST, cfg) == pytest.approx(-1.0)

    @given(st.floats(0.0, 1.0))
    def test_sleep_is_free(self, b):
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.9)
        assert reward(b, Action.SLEEP, cfg) == 0.0

    def test_sign_change_at_breakeven(self):
        cfg = RewardConfig(r1=3.0, r0=1.0, gamma=0.9)
        b_star = cfg.r0 / (cfg.r0 + cfg.r1)
        assert reward(b_star, Action.HARVEST, cfg) == pytest.approx(0.0, abs=1e-12)
        assert reward(b_star + 1e-6, Action.HARVEST, cfg) > 0.0
        assert reward(b_star - 1e-6, Action.HARVEST, cfg) < 0.0

    def test_rejects_invalid_belief(self):
        cfg = RewardConfig(r1=1.0, r0=1.0, gamma=0.9)
        with pytest.raises(ValueError):
            reward(1.5, Action.HARVEST, cfg)


class TestSleepUpdate:
    def test_direct_evaluation(self):
        params = GEParams(p=0.2, q=0.3)
        assert sleep_update(0.5, params) == pytest.approx(0.55, abs=1e-15)
        assert sleep_update(0.3, params) == pytest.approx(0.45, abs=1e-15)

    def test_stationary_fixed_point(self):
        params = GEParams(p=0.2, q=0.3)
        pi_g = stationary(params).good
        assert sleep_update(pi_g, params) == pytest.approx(pi_g, abs=1e-15)

    @given(valid_params(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_affine_contraction(self, params, b1, b2):
        lhs = abs(sleep_update(b1, params) - sleep_update(b2, params))
        assert lhs == pytest.approx(params.persistence * abs(b1 - b2), abs=1e-12)


class TestHarvestUpdate:
    def test_good_observation(self):
        assert harvest_update(Observation.GOOD, GEParams(p=0.2, q=0.3)) == pytest.approx(0.8)

    def test_bad_observation(self):
        assert harvest_update(Observation.BAD, GEParams(p=0.2, q=0.3)) == pytest.approx(0.3)

    def test_rejects_missing_observation(self):
        with pytest.raises(ValueError):
            harvest_update(Observation.NONE, GEParams(p=0.2, q=0.3))

    @given(valid_params())
    @settings(max_examples=50)
    def test_good_exceeds_bad(self, params):
        assert harvest_update(Observation.GOOD, params) > harvest_update(Observation.BAD, params)


class TestBeliefAfterFailure:
    def test_no_extra_sleep(self):
        params = GEParams(p=0.2, q=0.3)
        assert belief_after_failure_and_sleep(0, params) == pytest.approx(0.3, abs=1e-15)

    def test_one_sleep(self):
        params = GEParams(p=0.2, q=0.3)
        assert belief_after_failure_and_sleep(1, params) == pytest.approx(0.45, abs=1e-15)

    def test_limit_is_stationary(self):
        params = GEParams(p=0.2, q=0.3)
        pi_g = stationary(params).good
        assert belief_after_failure_and_sleep(200, params) == pytest.approx(pi_g, abs=1e-12)

    def test_rejects_negative(self):
        for n in (-1, np.array([0, 3, -1])):
            with pytest.raises(ValueError, match="sleep count must be nonnegative"):
                belief_after_failure_and_sleep(n, GEParams(p=0.2, q=0.3))

    @given(valid_params(), st.integers(0, 50))
    @settings(max_examples=100)
    def test_strictly_increasing_and_bounded(self, params, n):
        b_n = belief_after_failure_and_sleep(n, params)
        b_next = belief_after_failure_and_sleep(n + 1, params)
        pi_g = stationary(params).good
        # strict increase until the geometric term sinks below float resolution
        if pi_g - b_n > 1e-13:
            assert b_next > b_n
        else:
            assert b_next >= b_n
        assert b_next < pi_g + 1e-15

    @given(valid_params(), st.integers(0, 200))
    @settings(max_examples=100)
    def test_matches_iterated_sleep_update(self, params, n):
        b = params.q
        for _ in range(n):
            b = sleep_update(b, params)
        assert belief_after_failure_and_sleep(n, params) == pytest.approx(b, abs=1e-12)

    @given(valid_params(), st.lists(st.integers(0, 500), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_array_matches_scalar(self, params, ns):
        beliefs = belief_after_failure_and_sleep(np.array(ns), params)
        assert beliefs.tolist() == [belief_after_failure_and_sleep(n, params) for n in ns]

    @pytest.mark.parametrize("p,q,n", [(4e-7, 1e-6, 446), (3e-9, 2e-9, 10), (0.3, 0.2, 3)])
    def test_relative_precision_near_persistence_one(self, p, q, n):
        # 1 - c^(n+1) with c = 1 - p - q near 1 must not lose digits
        params = GEParams(p=p, q=q)
        fp, fq = Fraction(p), Fraction(q)
        exact = fq * (1 - (1 - fp - fq) ** (n + 1)) / (fp + fq)
        got = Fraction(float(belief_after_failure_and_sleep(n, params)))
        assert abs(got - exact) <= Fraction(1, 10**14) * exact

    def test_matches_iteration_at_large_n(self):
        params = GEParams(p=0.05, q=0.05)
        b = params.q
        for _ in range(10_000):
            b = sleep_update(b, params)
        assert belief_after_failure_and_sleep(10_000, params) == pytest.approx(b, abs=1e-12)


def test_initial_belief_is_stationary():
    params = GEParams(p=0.2, q=0.3)
    assert initial_belief(params) == stationary(params).good
