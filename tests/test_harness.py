"""Tests for the paired Monte-Carlo experiment harness."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.beliefs import RewardConfig
from rfharvest.gilbert_elliott import GEParams, from_burst_parameterization, stationary
from rfharvest.harness import (
    ExperimentSpec,
    PolicyDef,
    _run_episode,
    evaluate,
    load_result_json,
    mc_policy_value,
    write_result_csv,
    write_result_json,
)
from rfharvest.threshold import optimal_sleep_time, policy_value_linear_system

PARAMS = GEParams(p=0.2, q=0.3)
CFG = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)


def small_spec(**overrides):
    base = dict(
        params=PARAMS,
        cfg=CFG,
        horizon=500,
        paths=8,
        runs_per_path=3,
        base_seed=5,
        policies=(PolicyDef("always_harvest"),),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_horizon_truncation_guard(self):
        with pytest.raises(ValueError):
            small_spec(horizon=100)  # 0.99^100 is 37% of the mass

    def test_duplicate_policy_keys_rejected(self):
        spec = small_spec(policies=(PolicyDef("always_harvest"), PolicyDef("always_harvest")))
        with pytest.raises(ValueError):
            evaluate(spec)

    def test_echo_is_json_serializable(self):
        echo = small_spec().echo()
        json.dumps(echo)
        assert echo["params"] == {"p": 0.2, "q": 0.3}


class TestEvaluate:
    def test_deterministic_given_seed(self):
        spec = small_spec(
            policies=(PolicyDef("bayes_learner", {"k": 4}), PolicyDef("always_harvest"))
        )
        a = evaluate(spec)
        b = evaluate(spec)
        assert a.means == b.means
        for key in a.policy_keys:
            np.testing.assert_array_equal(a.path_means[key], b.path_means[key])

    def test_sleep_always_earns_exactly_zero(self):
        spec = small_spec(
            policies=(PolicyDef("fixed_threshold", {"sleep_slots": None}),)
        )
        res = evaluate(spec)
        key = res.policy_keys[0]
        assert res.means[key] == 0.0
        assert np.all(res.path_means[key] == 0.0)

    def test_always_harvest_matches_closed_form(self):
        # stationary start makes the per-slot expected reward constant,
        # so the discounted total is a geometric series
        spec = small_spec(paths=400, runs_per_path=1, horizon=2_000, base_seed=11)
        res = evaluate(spec)
        pi_g = stationary(PARAMS).good
        closed = ((CFG.r0 + CFG.r1) * pi_g - CFG.r0) * (1 - CFG.gamma**2_000) / (1 - CFG.gamma)
        key = "always_harvest"
        assert abs(res.means[key] - closed) < 3.0 * res.std_errors[key]

    def test_fixed_threshold_matches_analytic_start_mixture(self):
        # value of the optimal threshold policy from a stationary start:
        # harvest once at belief pi_g, then the linear-system values take over
        params = from_burst_parameterization(0.6, 2.5)
        policy, value = optimal_sleep_time(params, CFG)
        n = policy.sleep_slots
        pi_g = stationary(params).good
        analytic = (
            (CFG.r0 + CFG.r1) * pi_g
            - CFG.r0
            + CFG.gamma * (pi_g * value.v_good + (1.0 - pi_g) * value.v_fail)
        )
        spec = ExperimentSpec(
            params=params,
            cfg=CFG,
            horizon=2_000,
            paths=3_000,
            runs_per_path=1,
            base_seed=77,
            policies=(PolicyDef("fixed_threshold", {"sleep_slots": n}),),
        )
        res = evaluate(spec)
        key = f"fixed_threshold(sleep_slots={n})"
        assert abs(res.means[key] - analytic) < 3.0 * res.std_errors[key]

    def test_paired_gap_uses_shared_paths(self):
        spec = small_spec(
            policies=(
                PolicyDef("always_harvest"),
                PolicyDef("fixed_threshold", {"sleep_slots": 0}),
            )
        )
        res = evaluate(spec)
        # sleeping zero slots after a failure is the always-harvest policy
        gap, _ = res.paired_gap("always_harvest", "fixed_threshold(sleep_slots=0)")
        assert gap == 0.0

    def test_run_noise_shrinks_like_sqrt_of_runs(self):
        # within one path, the standard error of the run-averaged reward
        # scales as 1/sqrt(runs): doubling runs shrinks it by about sqrt(2)
        from rfharvest.gilbert_elliott import simulate
        from rfharvest.harness import _episode_rng, _make_policy

        params = from_burst_parameterization(0.6, 2.5)
        path = simulate(params, 500, seed=99)
        policy = _make_policy(PolicyDef("random_sampling"), params, CFG)
        rewards = []
        for run in range(1024):
            rewards.append(_run_episode(policy, _episode_rng(1, 0, run, 0), path.states, CFG))
        rewards = np.asarray(rewards)
        se_n = rewards.reshape(-1, 16).mean(axis=1).std(ddof=1)
        se_2n = rewards.reshape(-1, 32).mean(axis=1).std(ddof=1)
        assert 1.15 < se_n / se_2n < 1.75  # ideal ratio sqrt(2)


class ScriptedPolicy:
    """Returns scripted sleep counts and logs every protocol call."""

    def __init__(self, first, script):
        self.first = first
        self.script = script

    def reset(self, rng):
        self.rng = rng
        self.returned = [self.first]
        self.harvested = []
        self.sleeps = 0
        self._next = iter(self.script)
        return self.first

    def after_harvest(self, good):
        self.harvested.append(good)
        self.returned.append(next(self._next, 0))
        return self.returned[-1]

    def after_sleep(self):
        self.sleeps += 1


class TestEpisodeLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(st.booleans(), min_size=1, max_size=40),
        first=st.sampled_from([0, None]),
        script=st.lists(st.one_of(st.none(), st.integers(0, 8)), max_size=20),
    )
    def test_timer_contract(self, states, first, script):
        cfg = RewardConfig(r1=3.0, r0=2.0, gamma=0.9)
        policy = ScriptedPolicy(first, script)
        rng = np.random.default_rng(0)
        records = []
        total = _run_episode(
            policy, rng, np.array(states, dtype=np.int8), cfg,
            lambda *rec: records.append(rec),
        )
        horizon = len(states)
        assert policy.rng is rng
        assert [r[0] for r in records] == list(range(horizon))
        harvests = [t for t, good, _, _ in records if good is not None]
        assert policy.harvested == [states[t] for t in harvests]
        assert policy.sleeps == horizon - len(harvests)
        assert len(policy.returned) == len(harvests) + 1
        # each sleep count (from reset, then from every harvest) is slept
        # in full, cut off at the horizon, with the timer counting down
        for start, n, end in zip([-1] + harvests, policy.returned, harvests + [horizon]):
            if start >= 0:
                assert records[start][3] == n
            slept = records[start + 1 : end]
            if n is None:
                assert end == horizon
                assert all(r[3] is None for r in slept)
            else:
                assert end == min(start + 1 + n, horizon)
                assert [r[3] for r in slept] == list(range(n - 1, -1, -1))[: len(slept)]
        expected = 0.0
        for t, good, reward, _ in records:
            assert reward == (0.0 if good is None else (cfg.r1 if good else -cfg.r0))
            expected += cfg.gamma**t * reward
        assert total == pytest.approx(expected, abs=1e-9)


class TestMcPolicyValue:
    def test_matches_linear_system(self):
        params = from_burst_parameterization(0.6, 2.5)
        sol = policy_value_linear_system(1, params, CFG)
        mean, se = mc_policy_value(params, CFG, sleep_slots=1, episodes=50_000, horizon=2_000, seed=3)
        assert abs(mean - sol.v_good) < 3.0 * se

    def test_custom_initial_belief(self):
        params = from_burst_parameterization(0.6, 2.5)
        sol = policy_value_linear_system(1, params, CFG)
        pi_g = stationary(params).good
        analytic = (
            (CFG.r0 + CFG.r1) * pi_g
            - CFG.r0
            + CFG.gamma * (pi_g * sol.v_good + (1.0 - pi_g) * sol.v_fail)
        )
        mean, se = mc_policy_value(
            params, CFG, sleep_slots=1, episodes=50_000, horizon=2_000, seed=4,
            initial_belief=pi_g,
        )
        assert abs(mean - analytic) < 3.0 * se


class TestEmit:
    def test_csv_schema(self):
        res = evaluate(small_spec())
        out = io.StringIO()
        write_result_csv(res, out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == "policy,mean_discounted_reward,std_error,paths,runs_per_path,horizon"
        assert len(lines) == 2

    def test_json_round_trip_includes_spec(self):
        res = evaluate(small_spec())
        out = io.StringIO()
        write_result_json(res, out)
        data = load_result_json(io.StringIO(out.getvalue()))
        assert data["spec"] == res.spec_echo
        assert data["policies"][0]["key"] == "always_harvest"
        assert data["policies"][0]["mean_discounted_reward"] == res.means["always_harvest"]

    def test_emitted_files_identical_across_reruns(self, tmp_path):
        for name in ("a.json", "b.json"):
            res = evaluate(small_spec())
            with open(tmp_path / name, "w") as fh:
                write_result_json(res, fh)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
