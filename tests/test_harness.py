"""Tests for the paired Monte-Carlo experiment harness.

``mc_policy_value`` steps renewal cycles; two oracles state the sleep-n
policy's truncated return apart from it: ``per_slot_policy_value``, the
slot-by-slot simulation it replaced, and ``exact_truncated_value``, the
expectation by a forward recursion over (hidden state, sleep timer).
"""

import io
import json
import zlib

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
    mc_policy_value,
    write_result_csv,
    write_result_json,
)
from rfharvest.threshold import build_lookup_table, optimal_sleep_time, policy_value_linear_system

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
    @pytest.mark.parametrize("name", ["bayes_learner", "impoverished_posterior", "random_sampling"])
    def test_table_for_another_reward_rejected(self, name):
        table = build_lookup_table([0.4, 0.6, 0.8], [2.0, 4.0, 8.0], RewardConfig(r1=10.0, r0=1.0, gamma=0.99))
        opts = {"k": 5, "table": table} if name == "bayes_learner" else {"table": table}
        with pytest.raises(ValueError, match="table was built for"):
            evaluate(small_spec(policies=(PolicyDef(name, opts),)))

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

    @pytest.mark.parametrize("options", [{}, {"sleep_slots": -1}])
    def test_fixed_threshold_needs_a_nonnegative_count(self, options):
        with pytest.raises(ValueError, match="sleep_slots"):
            evaluate(small_spec(policies=(PolicyDef("fixed_threshold", options),)))

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
        states = simulate(params, 500, seed=99)
        policy = _make_policy(PolicyDef("random_sampling"), CFG)
        rewards = []
        for run in range(1024):
            rewards.append(_run_episode(policy, _episode_rng(1, 0, run, 0), states, CFG))
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
        harvests = [t for t, good, _ in records if good is not None]
        assert policy.harvested == [states[t] for t in harvests]
        assert policy.sleeps == horizon - len(harvests)
        assert len(policy.returned) == len(harvests) + 1
        # each sleep count (from reset, then from every harvest) is slept
        # in full, cut off at the horizon, with the timer counting down
        for start, n, end in zip([-1] + harvests, policy.returned, harvests + [horizon]):
            if start >= 0:
                assert records[start][2] == n
            slept = records[start + 1 : end]
            if n is None:
                assert end == horizon
                assert all(r[2] is None for r in slept)
            else:
                assert end == min(start + 1 + n, horizon)
                assert [r[2] for r in slept] == list(range(n - 1, -1, -1))[: len(slept)]
        expected = 0.0
        for t, good, _ in records:
            expected += cfg.gamma**t * (0.0 if good is None else (cfg.r1 if good else -cfg.r0))
        assert total == pytest.approx(expected, abs=1e-9)


def per_slot_policy_value(params, cfg, sleep_slots, episodes, horizon, seed):
    """Monte-Carlo value of the sleep-n policy, one slot at a time for all
    episodes; the same start and result as ``mc_policy_value``."""
    rng = np.random.Generator(np.random.Philox(seed))
    stay_good = 1.0 - params.p
    good = rng.random(episodes) < stay_good
    timer = np.zeros(episodes, dtype=np.int64)
    totals = np.zeros(episodes)
    discount = 1.0
    leave_bad = params.q
    for _ in range(horizon):
        harvesting = timer == 0
        totals += discount * np.where(harvesting, np.where(good, cfg.r1, -cfg.r0), 0.0)
        failed = harvesting & ~good
        timer = np.where(failed, sleep_slots, np.where(harvesting, 0, timer - 1))
        good = rng.random(episodes) < np.where(good, stay_good, leave_bad)
        discount *= cfg.gamma
    mean = float(totals.mean())
    se = float(totals.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else float("nan")
    return mean, se


def exact_truncated_value(params, cfg, sleep_slots, horizon):
    """Expected discounted return of the sleep-n policy over ``horizon``
    slots, started harvesting with the state good with probability 1 - p.

    ``good[k]``/``bad[k]`` hold the probability of each hidden state with
    k sleeping slots left in the current slot (k = 0 harvests).
    """
    p, q = params.p, params.q
    good = np.zeros(sleep_slots + 1)
    bad = np.zeros(sleep_slots + 1)
    good[0], bad[0] = 1.0 - p, p
    total = 0.0
    for t in range(horizon):
        total += cfg.gamma**t * (good[0] * cfg.r1 - bad[0] * cfg.r0)
        next_good = np.zeros_like(good)
        next_bad = np.zeros_like(bad)
        next_good[0] += good[0]  # success: harvest again
        next_bad[sleep_slots] += bad[0]  # failure: sleep n slots
        next_good[:-1] += good[1:]  # one sleeping slot passes
        next_bad[:-1] += bad[1:]
        good = next_good * (1.0 - p) + next_bad * q
        bad = next_good * p + next_bad * (1.0 - q)
    return total


@st.composite
def mc_problems(draw):
    p = draw(st.floats(0.01, 0.97))
    q = draw(st.floats(0.01, 0.98 - p))
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999)))
    return GEParams(p=p, q=q), RewardConfig(r1=draw(st.floats(0.5, 10.0)), r0=draw(st.floats(0.5, 10.0)), gamma=gamma)


class TestMcPolicyValue:
    def test_matches_linear_system(self):
        params = from_burst_parameterization(0.6, 2.5)
        sol = policy_value_linear_system(1, params, CFG)
        mean, se = mc_policy_value(params, CFG, sleep_slots=1, episodes=50_000, horizon=2_000, seed=3)
        assert abs(mean - sol.v_good) < 3.0 * se

    @given(mc_problems(), st.integers(0, 70), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_both_simulations_match_exact_recursion(self, problem, n, horizon):
        params, cfg = problem
        exact = exact_truncated_value(params, cfg, n, horizon)
        seed = zlib.crc32(repr((params, cfg, n, horizon)).encode())
        for simulate_value in (mc_policy_value, per_slot_policy_value):
            mean, se = simulate_value(params, cfg, n, episodes=4_000, horizon=horizon, seed=seed)
            assert abs(mean - exact) <= 5.0 * se + 1e-9 * abs(exact), simulate_value.__name__

    @pytest.mark.parametrize("pi_g,t_b,seed", [(0.6, 2.5, 1), (0.7, 5.0, 2), (0.3, 8.0, 3)])
    def test_standard_error_matches_per_slot_simulation(self, pi_g, t_b, seed):
        params = from_burst_parameterization(pi_g, t_b)
        n = optimal_sleep_time(params, CFG)[0].sleep_slots
        _, se = mc_policy_value(params, CFG, n, episodes=200_000, horizon=200, seed=seed)
        _, oracle_se = per_slot_policy_value(params, CFG, n, episodes=200_000, horizon=200, seed=seed)
        assert se == pytest.approx(oracle_se, rel=0.1)

    @pytest.mark.parametrize(
        "params,gamma,n,horizon",
        [
            (PARAMS, 1.0 - 1e-8, 1, 2_000),
            (PARAMS, 0.99, 0, 2_000),
            (PARAMS, 0.99, 1_000, 2_000),
            (GEParams(p=1e-12, q=0.3), 0.99, 2, 1_000),
            # the geometric draws saturate at the int64 maximum here
            (GEParams(p=1e-300, q=0.3), 0.99, 2, 1_000),
            (GEParams(p=0.3, q=1e-300), 0.99, 2, 1_000),
        ],
    )
    def test_edges_match_exact_recursion(self, params, gamma, n, horizon):
        cfg = RewardConfig(r1=CFG.r1, r0=CFG.r0, gamma=gamma)
        exact = exact_truncated_value(params, cfg, n, horizon)
        mean, se = mc_policy_value(params, cfg, n, episodes=20_000, horizon=horizon, seed=17)
        assert abs(mean - exact) <= 5.0 * se + 1e-9 * abs(exact)

    @pytest.mark.parametrize("gamma,horizon", [(0.0, 1_000), (1e-300, 1_000), (0.99, 1)])
    def test_first_slot_only(self, gamma, horizon):
        # only the first harvest counts: r1 with probability 1 - p, else -r0
        cfg = RewardConfig(r1=CFG.r1, r0=CFG.r0, gamma=gamma)
        mean, se = mc_policy_value(PARAMS, cfg, 3, episodes=20_000, horizon=horizon, seed=23)
        assert abs(mean - ((1.0 - PARAMS.p) * cfg.r1 - PARAMS.p * cfg.r0)) <= 5.0 * se

    def test_one_episode_has_no_standard_error(self):
        mean, se = mc_policy_value(PARAMS, CFG, 1, episodes=1, horizon=500, seed=5)
        assert np.isfinite(mean)
        assert np.isnan(se)

    @pytest.mark.parametrize(
        "sleep_slots,episodes,horizon", [(-1, 100, 100), (1, 0, 100), (1, 100, 0)]
    )
    def test_rejects_invalid_arguments(self, sleep_slots, episodes, horizon):
        with pytest.raises(ValueError):
            mc_policy_value(PARAMS, CFG, sleep_slots, episodes=episodes, horizon=horizon, seed=1)


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
        data = json.loads(out.getvalue())
        assert data["schema"] == "experiment-result/1"
        assert data["spec"] == res.spec_echo
        assert data["policies"][0]["key"] == "always_harvest"
        assert data["policies"][0]["mean_discounted_reward"] == res.means["always_harvest"]

    def test_emitted_files_identical_across_reruns(self, tmp_path):
        for name in ("a.json", "b.json"):
            res = evaluate(small_spec())
            with open(tmp_path / name, "w") as fh:
                write_result_json(res, fh)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
