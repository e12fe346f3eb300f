"""Tests for both value-iteration representations and the greedy policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.beliefs import Action, RewardConfig
from rfharvest.gilbert_elliott import GEParams, stationary
from rfharvest.threshold import policy_value_linear_system, optimal_sleep_time
from rfharvest.value_iteration import (
    AlphaVector,
    MaxIterationsExceeded,
    PiecewiseLinearValue,
    VISettings,
    bellman_backup_alpha,
    bellman_backup_grid,
    greedy_policy,
    harvest_crossover,
    prune_lines,
    q_values,
    solve,
    sup_difference,
    zero_alpha_value,
    zero_grid_value,
)

from test_gilbert_elliott import valid_params

PARAMS = GEParams(p=0.2, q=0.3)
CFG = RewardConfig(r1=10.0, r0=1.0, gamma=0.9)


def brute_force_envelope(lines, xs):
    return np.max(
        np.array([[a + b * x for x in xs] for a, b in lines]), axis=0
    )


class TestPruneLines:
    def test_keeps_envelope_participants(self):
        lines = [AlphaVector(0.0, 0.0), AlphaVector(-1.0, 10.0), AlphaVector(5.0, 0.5)]
        kept = prune_lines(lines, 0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 2001)
        np.testing.assert_allclose(
            brute_force_envelope(kept, xs), brute_force_envelope(lines, xs), atol=1e-12
        )

    def test_drops_dominated_line(self):
        lines = [AlphaVector(0.0, 1.0), AlphaVector(-5.0, 1.0)]
        kept = prune_lines(lines, 0.0, 1.0)
        assert kept == (AlphaVector(0.0, 1.0),)

    def test_drops_line_winning_outside_interval(self):
        # the steep line only wins for b > 1, outside [0, 1]
        lines = [AlphaVector(1.0, 0.0), AlphaVector(-9.0, 9.5)]
        kept = prune_lines(lines, 0.0, 1.0)
        assert kept == (AlphaVector(1.0, 0.0),)

    def test_merges_numerically_coincident_lines(self):
        lines = [AlphaVector(1.0, 2.0), AlphaVector(1.0, 2.0 + 1e-14)]
        kept = prune_lines(lines, 0.0, 1.0)
        assert len(kept) == 1

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(0, 10)).map(lambda t: AlphaVector(*t)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_envelope_preserved_up_to_tolerance(self, lines):
        kept = prune_lines(lines, 0.2, 0.8)
        xs = np.linspace(0.2, 0.8, 301)
        full = brute_force_envelope(lines, xs)
        pruned = brute_force_envelope(kept, xs)
        np.testing.assert_allclose(pruned, full, atol=1e-9)


class TestBackupAlpha:
    def test_backup_of_zero_value(self):
        # breakeven belief 0.5 sits inside [q, 1-p], so both the new
        # harvesting line and the surviving zero line win somewhere
        cfg = RewardConfig(r1=5.0, r0=5.0, gamma=0.9)
        v0 = zero_alpha_value(PARAMS)
        v1 = bellman_backup_alpha(v0, PARAMS, cfg)
        assert set(v1.lines) == {
            AlphaVector(-cfg.r0, cfg.r0 + cfg.r1),
            AlphaVector(0.0, 0.0),
        }

    def test_backup_of_zero_value_prunes_dominated_zero_line(self):
        # with a cheap failure the harvesting line dominates the whole
        # belief interval and the zero line is pruned
        v0 = zero_alpha_value(PARAMS)
        v1 = bellman_backup_alpha(v0, PARAMS, CFG)
        assert v1.lines == (AlphaVector(-CFG.r0, CFG.r0 + CFG.r1),)

    def test_slopes_nonnegative_along_iterations(self):
        v = zero_alpha_value(PARAMS)
        for _ in range(60):
            v = bellman_backup_alpha(v, PARAMS, CFG)
            assert all(line.beta >= 0.0 for line in v.lines)

    def test_matches_grid_backup_for_linear_input(self):
        # a one-line input interpolates exactly, so both branches agree
        # at grid points to floating precision
        line = AlphaVector(1.25, 2.5)
        lo, hi = PARAMS.q, 1.0 - PARAMS.p
        v_alpha = PiecewiseLinearValue(lines=(line,), lo=lo, hi=hi)
        grid0 = zero_grid_value(PARAMS, resolution=1e-5)
        v_grid = type(grid0)(grid=grid0.grid, values=line.alpha + line.beta * grid0.grid)

        out_alpha = bellman_backup_alpha(v_alpha, PARAMS, CFG)
        out_grid = bellman_backup_grid(v_grid, PARAMS, CFG)

        rng = np.random.default_rng(7)
        beliefs = rng.uniform(lo, hi, size=200)
        # compare at grid points nearest the random beliefs (grid values
        # are exact there)
        idx = np.searchsorted(out_grid.grid, beliefs).clip(1, len(out_grid.grid) - 1)
        pts = out_grid.grid[idx]
        np.testing.assert_allclose(out_alpha.value(pts), out_grid.values[idx], atol=1e-9)

    def test_full_solve_matches_grid_solve(self):
        settings_ = VISettings(epsilon=1e-5, grid_resolution=1e-4)
        res_a = solve(PARAMS, CFG, settings_, representation="alpha")
        res_g = solve(PARAMS, CFG, settings_, representation="grid")
        pts = np.linspace(PARAMS.q, 1.0 - PARAMS.p, 501)
        # grid solver carries O(resolution) interpolation error
        np.testing.assert_allclose(res_a.value.value(pts), res_g.value.value(pts), atol=5e-3)


class TestBackupGrid:
    def test_backup_of_zero_is_myopic(self):
        v0 = zero_grid_value(PARAMS, resolution=1e-3)
        v1 = bellman_backup_grid(v0, PARAMS, CFG)
        expected = np.maximum(0.0, (CFG.r0 + CFG.r1) * v0.grid - CFG.r0)
        np.testing.assert_allclose(v1.values, expected, atol=1e-12)

    def test_values_nondecreasing_along_grid(self):
        v = zero_grid_value(PARAMS, resolution=1e-3)
        for _ in range(40):
            v = bellman_backup_grid(v, PARAMS, CFG)
            assert np.all(np.diff(v.values) >= -1e-12)

    def test_grid_contains_special_beliefs(self):
        v = zero_grid_value(PARAMS, resolution=1e-3)
        for b in (PARAMS.q, 1.0 - PARAMS.p, stationary(PARAMS).good):
            assert np.any(np.isclose(v.grid, b, atol=0.0))


class TestSolve:
    def test_gamma_zero_converges_in_one_iteration(self):
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.0)
        res = solve(PARAMS, cfg, VISettings(epsilon=1e-6))
        assert res.iterations == 1
        for b in np.linspace(PARAMS.q, 1.0 - PARAMS.p, 50):
            expected = max(0.0, (cfg.r0 + cfg.r1) * b - cfg.r0)
            assert res.value.value(float(b)) == pytest.approx(expected, abs=1e-12)

    def test_contraction_rate(self):
        res = solve(PARAMS, CFG, VISettings(epsilon=1e-6))
        deltas = res.sup_deltas
        for d_prev, d_next in zip(deltas, deltas[1:]):
            assert d_next <= CFG.gamma * d_prev + 1e-9

    def test_max_iterations_exceeded(self):
        with pytest.raises(MaxIterationsExceeded):
            solve(PARAMS, CFG, VISettings(epsilon=1e-8, max_iterations=3))

    def test_value_matches_policy_oracle(self):
        # converged value at the post-success belief equals the best
        # closed-form policy value within epsilon
        params = GEParams(p=0.2667, q=0.4)
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
        eps = 1e-4
        res = solve(params, cfg, VISettings(epsilon=eps))
        _, best = optimal_sleep_time(params, cfg)
        assert res.value.value(1.0 - params.p) == pytest.approx(best.v_good, abs=eps)

    def test_solver_convexity_and_history(self):
        res = solve(PARAMS, CFG, VISettings(epsilon=1e-4))
        # replay the solver's iterates: res.iterations backups from zero
        iterates = []
        v = zero_alpha_value(PARAMS)
        for _ in range(res.iterations):
            v = bellman_backup_alpha(v, PARAMS, CFG)
            iterates.append(v)
        assert iterates[-1] == res.value
        rng = np.random.default_rng(3)
        lo, hi = PARAMS.q, 1.0 - PARAMS.p
        for v in iterates[::10]:
            b1, b2, lam = rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform()
            mid = lam * b1 + (1 - lam) * b2
            assert v.value(mid) <= lam * v.value(b1) + (1 - lam) * v.value(b2) + 1e-9


class TestGreedyPolicy:
    def test_certain_good_harvests(self):
        res = solve(PARAMS, CFG, VISettings(epsilon=1e-5))
        assert greedy_policy(res.value, PARAMS, CFG, 1.0 - PARAMS.p) is Action.HARVEST

    def test_never_harvest_parameters_sleep(self):
        # harvesting is pure cost when the success reward is negligible
        params = GEParams(p=0.05, q=0.05)
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.9)
        res = solve(params, cfg, VISettings(epsilon=1e-6))
        assert greedy_policy(res.value, params, cfg, params.q) is Action.SLEEP

    def test_action_partition_is_threshold(self):
        res = solve(PARAMS, CFG, VISettings(epsilon=1e-6))
        bbar = harvest_crossover(res.value, PARAMS, CFG)
        grid = np.linspace(PARAMS.q, 1.0 - PARAMS.p, 701)
        actions = [greedy_policy(res.value, PARAMS, CFG, float(b)) for b in grid]
        for b, a in zip(grid, actions):
            if b >= bbar + 1e-12:
                assert a is Action.HARVEST
            elif b <= bbar - 1e-12:
                assert a is Action.SLEEP

    def test_crossover_agrees_between_representations(self):
        # interior crossover: compare the numeric threshold directly
        params = GEParams(p=0.2667, q=0.4)
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
        settings_ = VISettings(epsilon=1e-6, grid_resolution=1e-4)
        res_a = solve(params, cfg, settings_, representation="alpha")
        res_g = solve(params, cfg, settings_, representation="grid")
        b_a = harvest_crossover(res_a.value, params, cfg)
        b_g = harvest_crossover(res_g.value, params, cfg)
        assert params.q < b_a < stationary(params).good
        assert b_g == pytest.approx(b_a, abs=1e-3)

    def test_off_domain_crossover_means_harvest_everywhere(self):
        # here harvesting is greedy on the whole interval; the alpha form
        # reports the extrapolated threshold, the grid form clamps to q,
        # and both imply a zero sleep count
        from rfharvest.threshold import sleep_time_from_threshold

        settings_ = VISettings(epsilon=1e-6, grid_resolution=1e-4)
        res_a = solve(PARAMS, CFG, settings_, representation="alpha")
        res_g = solve(PARAMS, CFG, settings_, representation="grid")
        b_a = harvest_crossover(res_a.value, PARAMS, CFG)
        b_g = harvest_crossover(res_g.value, PARAMS, CFG)
        assert b_a <= PARAMS.q and b_g <= PARAMS.q
        assert sleep_time_from_threshold(b_a, PARAMS).sleep_slots == 0
        assert sleep_time_from_threshold(b_g, PARAMS).sleep_slots == 0

    def test_harvest_slope_dominates_sleep_slopes_at_fixed_point(self):
        res = solve(PARAMS, CFG, VISettings(epsilon=1e-8))
        v = res.value
        v_fail = v.value(PARAMS.q)
        v_good = v.value(1.0 - PARAMS.p)
        beta_h = CFG.r0 + CFG.r1 + CFG.gamma * (v_good - v_fail)
        max_sleep_slope = max(CFG.gamma * line.beta * PARAMS.persistence for line in v.lines)
        assert beta_h >= max_sleep_slope


@given(valid_params())
@settings(max_examples=15, deadline=None)
def test_lemma_properties_random_params(params):
    cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.9)
    v = zero_alpha_value(params)
    prev_delta = None
    grid = np.linspace(params.q, 1.0 - params.p, 101)
    for _ in range(40):
        v_next = bellman_backup_alpha(v, params, cfg)
        delta = sup_difference(v_next, v)
        assert all(line.beta >= 0.0 for line in v_next.lines)
        vals = v_next.value(grid)
        assert np.all(np.diff(vals) >= -1e-9)
        if prev_delta is not None:
            assert delta <= cfg.gamma * prev_delta + 1e-9
        prev_delta = delta
        v = v_next


def test_q_values_tie_breaks_toward_harvest():
    res = solve(PARAMS, CFG, VISettings(epsilon=1e-6))
    bbar = harvest_crossover(res.value, PARAMS, CFG)
    qh, qs = q_values(res.value, PARAMS, CFG, bbar)
    assert qh == pytest.approx(qs, abs=1e-6)
    assert greedy_policy(res.value, PARAMS, CFG, bbar + 1e-9) is Action.HARVEST


def test_every_kept_line_wins_somewhere():
    # after pruning, each line is the strict maximizer on its own segment
    params = GEParams(p=0.0026, q=0.05)  # slow-mixing chain with many segments
    cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
    res = solve(params, cfg, VISettings(epsilon=1e-4))
    v = res.value
    assert len(v.lines) > 3
    edges = [v.lo] + v.breakpoints() + [v.hi]
    assert len(edges) == len(v.lines) + 1
    for i, line in enumerate(v.lines):
        mid = 0.5 * (edges[i] + edges[i + 1])
        env = v.value(mid)
        assert line.at(mid) == pytest.approx(env, abs=1e-9)
        others = max(o.at(mid) for j, o in enumerate(v.lines) if j != i)
        assert line.at(mid) >= others - 1e-9


def test_settings_validation():
    with pytest.raises(ValueError):
        VISettings(epsilon=0.0)
    with pytest.raises(ValueError):
        VISettings(max_iterations=0)
    with pytest.raises(ValueError):
        VISettings(grid_resolution=0.0)
    # epsilon defaults to 1e-4 of the reward scale
    assert VISettings().resolved_epsilon(CFG) == pytest.approx(1e-4 * CFG.r1)
    with pytest.raises(ValueError):
        solve(PARAMS, CFG, representation="tabular")
