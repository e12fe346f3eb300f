"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion summaries. Stated tolerances are pinned here; nothing is
deferred to later calibration.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rfharvest.battery import (
    BatteryConfig,
    absorption_analysis,
    build_chain,
    build_chain_from_success_probs,
    sweep_initial_levels,
)
from rfharvest.beliefs import Observation, RewardConfig
from rfharvest.gilbert_elliott import GEParams, stationary
from rfharvest.harness import learning_comparison, mc_policy_value
from rfharvest.learning import initial_particles, observe
from rfharvest.threshold import (
    ThresholdPolicy,
    build_lookup_table,
    optimal_sleep_time,
    policy_value_linear_system,
    vi_threshold_policy,
)
from rfharvest.value_iteration import (
    VISettings,
    bellman_backup_alpha,
    sup_difference,
    zero_alpha_value,
)

from test_battery import simulate_chain
from test_learning import ArrivalState, exact_posterior, quadrature_state_marginal

GAMMA = 0.99
PI_G_AXIS = np.linspace(0.05, 0.95, 20)
T_B_AXIS = np.linspace(1.1, 20.0, 20)
REWARD_SETTINGS = (
    RewardConfig(r1=10.0, r0=1.0, gamma=GAMMA),
    RewardConfig(r1=10.0, r0=10.0, gamma=GAMMA),
    RewardConfig(r1=1.0, r0=10.0, gamma=GAMMA),
)


def valid_grid_cells():
    for pi_g in PI_G_AXIS:
        for t_b in T_B_AXIS:
            q = 1.0 / t_b
            p = q * (1.0 - pi_g) / pi_g
            if 0.0 < p < 1.0 and 1.0 - p > q:
                yield GEParams(p=p, q=q)


def random_valid_params(rng, p_hi=0.7, q_hi=0.7, margin=0.02):
    while True:
        p = float(rng.uniform(0.02, p_hi))
        q = float(rng.uniform(0.02, q_hi))
        if 1.0 - p > q + margin:
            return GEParams(p=p, q=q)


def test_criterion_1_structural_equivalence():
    """Sleep counts from the value-iteration crossover equal the
    closed-form optimum on at least 99% of valid cells per reward
    setting; residual cells differ by one slot at a value tie < 1e-6."""
    settings = VISettings(epsilon=1e-6)
    for cfg in REWARD_SETTINGS:
        cells = list(valid_grid_cells())
        mismatches = []
        for params in cells:
            direct, value = optimal_sleep_time(params, cfg)
            via_vi, _ = vi_threshold_policy(params, cfg, settings)
            if direct == via_vi:
                continue
            assert not direct.never_harvest and not via_vi.never_harvest, (
                f"never-harvest disagreement at p={params.p}, q={params.q}"
            )
            n_a, n_b = direct.sleep_slots, via_vi.sleep_slots
            assert abs(n_a - n_b) <= 1, f"counts {n_a} vs {n_b} at p={params.p}, q={params.q}"
            tie = abs(value.v_good - policy_value_linear_system(n_b, params, cfg).v_good)
            assert tie < 1e-6, f"value gap {tie} at p={params.p}, q={params.q}"
            mismatches.append((params, n_a, n_b, tie))
        agreement = 1.0 - len(mismatches) / len(cells)
        assert agreement >= 0.99, f"agreement {agreement:.4f} for {cfg}"
        print(
            f"[criterion 1] PASS r1={cfg.r1} r0={cfg.r0}: "
            f"{len(cells) - len(mismatches)}/{len(cells)} exact, "
            f"{len(mismatches)} one-off ties"
        )


def test_criterion_2_closed_form_vs_simulation():
    """Linear-system policy values match Monte-Carlo discounted returns
    (1e5 episodes, horizon 2000) within 3 standard errors on ten random
    parameter sets."""
    cfg = RewardConfig(r1=10.0, r0=10.0, gamma=GAMMA)
    rng = np.random.default_rng(20240917)
    worst = 0.0
    for trial in range(10):
        params = random_valid_params(rng)
        n = int(rng.integers(0, 6))
        sol = policy_value_linear_system(n, params, cfg)
        mean, se = mc_policy_value(
            params, cfg, sleep_slots=n, episodes=100_000, horizon=2_000,
            seed=int(rng.integers(2**31)),
        )
        z = abs(mean - sol.v_good) / se
        worst = max(worst, z)
        assert z < 3.0, (
            f"trial {trial}: p={params.p:.4f} q={params.q:.4f} n={n}: "
            f"mc={mean:.3f} exact={sol.v_good:.3f} z={z:.2f}"
        )
    print(f"[criterion 2] PASS: 10 parameter sets within 3 sigma (worst z={worst:.2f})")


def test_criterion_3_lemma_suite():
    """At every backup: convexity, monotonicity in belief, nonnegative
    line slopes, and sup-norm decay at rate gamma; zero violations at
    tolerance 1e-9."""
    rng = np.random.default_rng(7)
    gammas = [0.9, 0.95, 0.99, 0.9, 0.95]
    total_steps = 0
    for gamma in gammas:
        params = random_valid_params(rng)
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=gamma)
        threshold = 1e-6 * (1.0 - gamma) / (2.0 * gamma)
        grid = np.linspace(params.q, 1.0 - params.p, 257)
        v = zero_alpha_value(params)
        prev_delta = None
        for _ in range(100_000):
            v_next = bellman_backup_alpha(v, params, cfg)
            delta = sup_difference(v_next, v)
            assert all(line.beta >= 0.0 for line in v_next.lines)
            vals = v_next.value(grid)
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-9), "monotonicity violated"
            # second differences of a convex function are nonnegative
            assert np.all(np.diff(diffs) >= -1e-9), "convexity violated"
            if prev_delta is not None:
                assert delta <= gamma * prev_delta + 1e-9, "decay rate violated"
            prev_delta = delta
            v = v_next
            total_steps += 1
            if delta <= threshold:
                break
        else:
            pytest.fail("value iteration failed to converge")
    print(f"[criterion 3] PASS: {total_steps} backups on 5 parameter sets, zero violations")


def test_criterion_4_qualitative_table_claims():
    """Cheap-failure setting: the sleep-one-or-two region covers at
    least 30% of valid cells. Expensive-failure setting: a nonempty
    never-harvest region exists."""
    cheap = build_lookup_table(PI_G_AXIS, T_B_AXIS, RewardConfig(r1=10.0, r0=1.0, gamma=GAMMA))
    valid = [c for c in cheap.cells if c.valid]
    short_sleep = [c for c in valid if c.policy.sleep_slots in (1, 2)]
    frac = len(short_sleep) / len(valid)
    assert frac >= 0.30, f"sleep-1-or-2 fraction {frac:.3f}"

    pricey = build_lookup_table(PI_G_AXIS, T_B_AXIS, RewardConfig(r1=1.0, r0=10.0, gamma=GAMMA))
    never = [c for c in pricey.cells if c.valid and c.policy.never_harvest]
    assert never, "expected a nonempty never-harvest region"
    print(
        f"[criterion 4] PASS: sleep-1-or-2 on {frac:.0%} of cells (cheap failures); "
        f"{len(never)} never-harvest cells (expensive failures)"
    )


def test_criterion_5_battery_oracles():
    """Gambler's-ruin closed form to 1e-10 at capacities 10 and 100,
    Monte-Carlo agreement within 3 sigma at one million episodes, exact
    endpoint probabilities, and monotone expected-slot columns."""
    success = 0.6
    for capacity in (10, 100):
        chain = build_chain_from_success_probs(success, success, 0, BatteryConfig(capacity=capacity))
        res = absorption_analysis(chain)
        rho = (1.0 - success) / success
        e = np.arange(capacity + 1)
        closed = (1.0 - rho**e) / (1.0 - rho**capacity)
        for phase in (0, 1):
            np.testing.assert_allclose(res.full_charge_prob[phase], closed, atol=1e-10)

    params = GEParams(p=0.1, q=0.25)
    chain = build_chain(params, ThresholdPolicy(1), BatteryConfig(capacity=10))
    res = absorption_analysis(chain)
    est, se = simulate_chain(chain, initial_level=4, initial_phase=1, episodes=1_000_000, seed=55)
    z = abs(est - res.full_charge_prob[1, 4]) / se
    assert z < 3.0, f"simulation z={z:.2f}"

    assert res.full_charge_prob[0, 0] == 0.0 and res.full_charge_prob[1, 0] == 0.0
    assert res.full_charge_prob[0, 10] == 1.0 and res.full_charge_prob[1, 10] == 1.0

    rows = sweep_initial_levels(params, ThresholdPolicy(1), BatteryConfig(capacity=40), list(range(0, 41, 4)))
    slots = [r["expected_slots_conditional"] for r in rows if r["initial_level"] > 0]
    assert all(a > b for a, b in zip(slots, slots[1:])), "expected-slots column not decreasing"
    print(f"[criterion 5] PASS: ruin oracle exact, simulation z={z:.2f}, endpoints and monotonicity hold")


def test_criterion_6_bayesian_exactness():
    """On 60 random observation sequences of length <= 10, untruncated
    filter weights equal brute-force appearance counts exactly, and
    exact state marginals match 400x400 quadrature to 1e-4."""
    rng = np.random.default_rng(60)
    alphabet = [Observation.GOOD, Observation.BAD, Observation.NONE]
    sequences = []
    for _ in range(60):
        length = int(rng.integers(3, 11))
        sequences.append([alphabet[int(rng.integers(3))] for _ in range(length)])

    worst_marginal = 0.0
    for zs in sequences:
        post = exact_posterior(zs)
        pset = initial_particles(10**9)
        for z in zs:
            pset = observe(pset, z)
        states = (ArrivalState.GOOD, ArrivalState.BAD)
        filtered = {(states[key[0]], key[1:]): w for key, w in pset.weights.items()}
        assert filtered == post.entries, f"weights diverge on {zs}"

        gap = abs(post.state_marginal(ArrivalState.GOOD) - quadrature_state_marginal(zs, m=400))
        worst_marginal = max(worst_marginal, gap)
        assert gap <= 1e-4, f"marginal gap {gap:.2e} on {zs}"
    print(
        f"[criterion 6] PASS: 60 sequences, integer weight equality, "
        f"worst marginal gap {worst_marginal:.1e}"
    )


def test_criterion_7_learning_comparison_ordering():
    """Desk-scale comparison: the posterior-sampling learner's mean
    discounted reward tops every baseline, beating always-harvest by
    more than two paired standard errors."""
    res = learning_comparison(scale="desk", base_seed=0)
    learner = "bayes_learner(k=20)"
    baselines = [k for k in res.policy_keys if k != learner]
    for key in baselines:
        assert res.means[learner] >= res.means[key], (
            f"{learner} mean {res.means[learner]:.2f} below {key} {res.means[key]:.2f}"
        )
    gap, se = res.paired_gap(learner, "always_harvest")
    assert gap > 2.0 * se, f"gap {gap:.2f} vs 2 x paired se {2 * se:.2f}"
    summary = ", ".join(f"{k}={res.means[k]:.1f}" for k in res.policy_keys)
    print(f"[criterion 7] PASS: {summary}; gap over always_harvest {gap:.1f} (+/-{se:.1f})")


def test_criterion_8_cli_determinism(tmp_path):
    """Rerunning every file-producing CLI command with the same seed
    yields byte-identical outputs; stdout commands repeat verbatim."""
    from rfharvest import cli

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "rfharvest.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    commands = {
        "solve": ["solve", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
                  "--gamma", "0.99", "--epsilon", "1e-4"],
        "policy": ["policy", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10", "--r1", "10",
                   "--gamma", "0.99"],
    }
    for name, argv in commands.items():
        assert run(argv) == run(argv), f"{name} stdout differs between reruns"

    file_commands = {
        "table": lambda out: ["table", "--pi-g-min", "0.3", "--pi-g-max", "0.7",
                              "--pi-g-steps", "3", "--t-b-min", "2", "--t-b-max", "6",
                              "--t-b-steps", "3", "--r0", "10", "--r1", "10",
                              "--gamma", "0.99", "--output", out],
        "battery": lambda out: ["battery", "--pi-g", "0.7", "--t-b", "5", "--r0", "10",
                                "--r1", "10", "--gamma", "0.99", "--capacity", "30",
                                "--level-step", "5", "--output", out],
        "learn": lambda out: ["learn", "--pi-g", "0.6", "--t-b", "2.5", "--r0", "10",
                              "--r1", "10", "--gamma", "0.99", "--k", "5", "--horizon",
                              "120", "--seed", "21", "--output", out],
        "compare": lambda out: ["compare", "--scale", "desk", "--seed", "3",
                                "--output", out, "--format", "json"],
    }
    for name, make_argv in file_commands.items():
        out_a = str(tmp_path / f"{name}_a.out")
        out_b = str(tmp_path / f"{name}_b.out")
        run(make_argv(out_a))
        run(make_argv(out_b))
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read(), f"{name} output differs between reruns"
    print("[criterion 8] PASS: identical outputs across reruns for all six subcommands")
