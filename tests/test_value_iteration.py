"""Tests for alpha-vector value iteration and the greedy policy.

A belief-grid value iteration (``grid_backup`` and friends below) is the
independent oracle: it discretizes beliefs on [q, 1-p] and interpolates
the sleep successor, so it must agree with the exact envelope up to
interpolation error. ``q_values`` and ``greedy_policy`` state the
action values at one belief directly, the oracle for the crossover that
``harvest_crossover`` finds in closed form. ``plain_solve`` is the span
rule loop without policy steps, the oracle for ``solve``.
``basis_policy_value`` prices a policy step by sleeping three basis
lines and solving a 2x2 system, the oracle for the closed form that
``_policy_value`` takes from ``beliefs``.
"""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfharvest import value_iteration
from rfharvest.beliefs import RewardConfig, _sleep_count
from rfharvest.gilbert_elliott import GEParams, from_burst_parameterization, stationary
from rfharvest.threshold import (
    ThresholdPolicy,
    optimal_sleep_time,
    policy_value_linear_system,
    vi_threshold_policy,
)
from rfharvest.value_iteration import (
    AlphaVector,
    MaxIterationsExceeded,
    PiecewiseLinearValue,
    SolveResult,
    VISettings,
    _policy_value,
    bellman_backup_alpha,
    difference_range,
    harvest_crossover,
    prune_lines,
    solve,
    sup_difference,
    zero_alpha_value,
)

from test_beliefs import Action
from test_gilbert_elliott import valid_params

PARAMS = GEParams(p=0.2, q=0.3)
CFG = RewardConfig(r1=10.0, r0=1.0, gamma=0.9)


def q_values(
    v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig, b: float
) -> tuple[float, float]:
    """(harvest, sleep) action values at belief b under continuation v."""
    v_fail = v.value(params.q)
    v_good = v.value(1.0 - params.p)
    q_h = (cfg.r0 + cfg.r1) * b - cfg.r0 + cfg.gamma * ((1.0 - b) * v_fail + b * v_good)
    q_s = cfg.gamma * v.value(params.q + params.persistence * b)
    return q_h, q_s


def greedy_policy(
    v: PiecewiseLinearValue, params: GEParams, cfg: RewardConfig, b: float
) -> Action:
    """Argmax action at belief b; ties break toward harvesting."""
    q_h, q_s = q_values(v, params, cfg, b)
    return Action.HARVEST if q_h >= q_s else Action.SLEEP


def plain_solve(params: GEParams, cfg: RewardConfig, settings: VISettings) -> SolveResult:
    """Backups from the zero value under the span stopping rule, with no
    policy steps: ``solve`` as it stood before them."""
    eps = settings.resolved_epsilon(cfg)
    scale = cfg.gamma / (1.0 - cfg.gamma)
    v = zero_alpha_value(params)
    for it in range(1, settings.max_iterations + 1):
        v_next = bellman_backup_alpha(v, params, cfg)
        d_min, d_max = difference_range(v_next, v)
        v = v_next
        if scale * (d_max - d_min) < eps:
            shift = scale * 0.5 * (d_max + d_min)
            lines = tuple(AlphaVector(a + shift, b) for a, b in v.lines)
            v = PiecewiseLinearValue(lines=lines, lo=v.lo, hi=v.hi)
            bbar = harvest_crossover(v, params, cfg)
            return SolveResult(v, it, eps, bbar, _sleep_count(bbar, params))
    raise MaxIterationsExceeded(f"plain loop not done after {settings.max_iterations} backups")


def basis_policy_value(n: int, params: GEParams, cfg: RewardConfig) -> PiecewiseLinearValue:
    """``_policy_value(n, ...)`` with the policy's values from a 2x2 solve.

    The harvesting line is h = c + x e_x + y e_y in (x, y) = (V(q),
    V(1-p)), with c = (-r0, r0+r1), e_x = (gamma, -gamma) and
    e_y = (0, gamma), and the sleep transform S is linear, so
    S^k h = S^k c + x S^k e_x + y S^k e_y. With d = 1 - gamma the
    policy's values solve

        (d + gamma p) y - gamma p x = r1 (1-p) - r0 p     (harvest at 1-p)
        x = (S^n h)(q)

    and the result is the envelope of S^k h, k = 0..n, and the zero line.
    Its determinant cancels as gamma approaches 1.
    """
    g, p = cfg.gamma, params.p
    lo, hi = params.q, 1.0 - p
    r_good = cfg.r1 * (1.0 - p) - cfg.r0 * p
    diag = (1.0 - g) + g * p
    basis = [AlphaVector(-cfg.r0, cfg.r0 + cfg.r1), AlphaVector(g, -g), AlphaVector(0.0, g)]
    for _ in range(n):
        basis = value_iteration._sleep_lines(basis, params, g)
    a_c, a_x, a_y = (ln.at(lo) for ln in basis)
    det = diag * (1.0 - a_x) - g * p * a_y
    x = (diag * a_c + a_y * r_good) / det
    y = (r_good * (1.0 - a_x) + g * p * a_c) / det
    lines = [value_iteration._harvest_line(x, y, cfg)]
    for _ in range(n):
        lines.extend(value_iteration._sleep_lines(lines[-1:], params, g))
    lines.append(AlphaVector(0.0, 0.0))
    return PiecewiseLinearValue(lines=prune_lines(lines, lo, hi), lo=lo, hi=hi)


def grid_of(params, resolution):
    """Beliefs on [q, 1-p] at the given spacing, with q, 1-p and pi_G included."""
    lo, hi = params.q, 1.0 - params.p
    n = max(2, int(math.ceil((hi - lo) / resolution)) + 1)
    base = np.linspace(lo, hi, n)
    return np.unique(np.concatenate([base, [lo, hi, stationary(params).good]]))


def grid_action_values(grid, values, params, cfg):
    """(harvest, sleep) action values on the grid; only sleep interpolates."""
    v_fail, v_good = values[0], values[-1]
    q_h = (cfg.r0 + cfg.r1) * grid - cfg.r0 + cfg.gamma * ((1.0 - grid) * v_fail + grid * v_good)
    q_s = cfg.gamma * np.interp(params.q + params.persistence * grid, grid, values)
    return q_h, q_s


def grid_backup(grid, values, params, cfg):
    return np.maximum(*grid_action_values(grid, values, params, cfg))


def grid_solve(params, cfg, epsilon, resolution):
    """Grid value iteration under the solver's stopping rule; returns (grid, values)."""
    grid = grid_of(params, resolution)
    values = np.zeros_like(grid)
    threshold = epsilon * (1.0 - cfg.gamma) / (2.0 * cfg.gamma)
    while True:
        nxt = grid_backup(grid, values, params, cfg)
        delta = float(np.max(np.abs(nxt - values)))
        values = nxt
        if delta <= threshold:
            return grid, values


def grid_crossover(grid, values, params, cfg):
    """First sign change of the harvest-minus-sleep gap, linearly refined."""
    q_h, q_s = grid_action_values(grid, values, params, cfg)
    gaps = q_h - q_s
    nonneg = np.nonzero(gaps >= 0.0)[0]
    if len(nonneg) == 0:
        return math.inf
    i = int(nonneg[0])
    if i == 0:
        return float(grid[0])
    b0, b1 = float(grid[i - 1]), float(grid[i])
    g0, g1 = float(gaps[i - 1]), float(gaps[i])
    return b0 + (b1 - b0) * (-g0) / (g1 - g0)


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

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(0, 10) | st.sampled_from([0.0, 1.0, 1.0 + 1e-13])).map(
                lambda t: AlphaVector(*t)
            ),
            min_size=1,
            max_size=16,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_lines_in_slope_order_give_the_sorted_result(self, lines, rnd):
        # strictly ascending slopes skip the sort; shuffled lines, with
        # repeated and coincident slopes, take it, and both give one tuple
        ordered = sorted(set(lines), key=lambda l: (l.beta, l.alpha))
        shuffled = list(lines)
        rnd.shuffle(shuffled)
        assert prune_lines(shuffled, 0.2, 0.8) == prune_lines(ordered, 0.2, 0.8)

    def test_already_sorted_lines_are_not_sorted_again(self):
        lines = [AlphaVector(5.0, 0.5), AlphaVector(0.0, 1.0), AlphaVector(-1.0, 10.0)]
        with mock.patch.object(value_iteration, "sorted", side_effect=AssertionError, create=True):
            kept = prune_lines(lines, 0.0, 1.0)
        assert kept == prune_lines(lines[::-1], 0.0, 1.0)

    @pytest.mark.parametrize("pi_g, t_b", [(0.6, 2.5), (0.3, 8.0), (0.5, 1000.0)])
    def test_backups_and_policy_steps_emit_lines_in_slope_order(self, pi_g, t_b):
        params = from_burst_parameterization(pi_g, t_b)
        with mock.patch.object(value_iteration, "prune_lines", wraps=prune_lines) as prune:
            solve(params, RewardConfig(r1=10.0, r0=10.0, gamma=0.99), VISettings(epsilon=1e-6))
        # every line but the last, a backup's new harvesting line, comes
        # in slope order; that line is usually the steepest, so most
        # calls skip the sort
        ascending = 0
        for call in prune.call_args_list:
            slopes = [line.beta for line in call.args[0]]
            assert all(a < b for a, b in zip(slopes[:-1], slopes[1:-1]))
            ascending += len(slopes) < 2 or slopes[-2] < slopes[-1]
        assert prune.call_count >= 3 and ascending >= 0.75 * prune.call_count


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
        grid = grid_of(PARAMS, resolution=1e-5)

        out_alpha = bellman_backup_alpha(v_alpha, PARAMS, CFG)
        out_grid = grid_backup(grid, line.alpha + line.beta * grid, PARAMS, CFG)

        rng = np.random.default_rng(7)
        beliefs = rng.uniform(lo, hi, size=200)
        # compare at grid points nearest the random beliefs (grid values
        # are exact there)
        idx = np.searchsorted(grid, beliefs).clip(1, len(grid) - 1)
        pts = grid[idx]
        np.testing.assert_allclose(out_alpha.value(pts), out_grid[idx], atol=1e-9)

    def test_full_solve_matches_grid_solve(self):
        res_a = solve(PARAMS, CFG, VISettings(epsilon=1e-5))
        grid, values = grid_solve(PARAMS, CFG, epsilon=1e-5, resolution=1e-4)
        pts = np.linspace(PARAMS.q, 1.0 - PARAMS.p, 501)
        # grid solver carries O(resolution) interpolation error
        np.testing.assert_allclose(res_a.value.value(pts), np.interp(pts, grid, values), atol=5e-3)


class TestBackupGrid:
    """Sanity checks of the grid oracle itself."""

    def test_backup_of_zero_is_myopic(self):
        grid = grid_of(PARAMS, resolution=1e-3)
        values = grid_backup(grid, np.zeros_like(grid), PARAMS, CFG)
        expected = np.maximum(0.0, (CFG.r0 + CFG.r1) * grid - CFG.r0)
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_values_nondecreasing_along_grid(self):
        grid = grid_of(PARAMS, resolution=1e-3)
        values = np.zeros_like(grid)
        for _ in range(40):
            values = grid_backup(grid, values, PARAMS, CFG)
            assert np.all(np.diff(values) >= -1e-12)

    def test_grid_contains_special_beliefs(self):
        grid = grid_of(PARAMS, resolution=1e-3)
        for b in (PARAMS.q, 1.0 - PARAMS.p, stationary(PARAMS).good):
            assert np.any(np.isclose(grid, b, atol=0.0))


class TestSolve:
    def test_gamma_zero_converges_in_one_iteration(self):
        cfg = RewardConfig(r1=10.0, r0=1.0, gamma=0.0)
        res = solve(PARAMS, cfg, VISettings(epsilon=1e-6))
        assert res.iterations == 1
        for b in np.linspace(PARAMS.q, 1.0 - PARAMS.p, 50):
            expected = max(0.0, (cfg.r0 + cfg.r1) * b - cfg.r0)
            assert res.value.value(float(b)) == pytest.approx(expected, abs=1e-12)

    def test_contraction_rate(self):
        res = plain_solve(PARAMS, CFG, VISettings(epsilon=1e-6))
        # replay the plain loop's backups and take the sup norm of each step
        deltas, v = [], zero_alpha_value(PARAMS)
        for _ in range(res.iterations):
            v_next = bellman_backup_alpha(v, PARAMS, CFG)
            deltas.append(sup_difference(v_next, v))
            v = v_next
        for d_prev, d_next in zip(deltas, deltas[1:]):
            assert d_next <= CFG.gamma * d_prev + 1e-9

    def test_max_iterations_exceeded(self):
        # with policy steps, 2 backups already meet epsilon 1e-8 here
        with pytest.raises(MaxIterationsExceeded, match=r"span bound .* epsilon 1\.000e-08"):
            solve(PARAMS, CFG, VISettings(epsilon=1e-8, max_iterations=1))

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
        res = plain_solve(PARAMS, CFG, VISettings(epsilon=1e-4))
        # replay the plain loop's iterates: res.iterations backups from zero
        iterates = []
        v = zero_alpha_value(PARAMS)
        for _ in range(res.iterations):
            v = bellman_backup_alpha(v, PARAMS, CFG)
            iterates.append(v)
        # the result is the last iterate with every alpha raised by the
        # midpoint constant of the last step; the slopes are unchanged
        d_min, d_max = difference_range(iterates[-1], iterates[-2])
        scale = CFG.gamma / (1.0 - CFG.gamma)
        assert scale * (d_max - d_min) < 1e-4
        shift = scale * 0.5 * (d_max + d_min)
        assert res.value.lines == tuple(
            AlphaVector(line.alpha + shift, line.beta) for line in iterates[-1].lines
        )
        # one step earlier the span rule was not yet met
        d_min, d_max = difference_range(iterates[-2], iterates[-3])
        assert scale * (d_max - d_min) >= 1e-4
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
        res_a = solve(params, cfg, VISettings(epsilon=1e-6))
        b_a = harvest_crossover(res_a.value, params, cfg)
        b_g = grid_crossover(*grid_solve(params, cfg, epsilon=1e-6, resolution=1e-4), params, cfg)
        assert params.q < b_a < stationary(params).good
        assert b_g == pytest.approx(b_a, abs=1e-3)

    def test_off_domain_crossover_means_harvest_everywhere(self):
        # here harvesting is greedy on the whole interval; the alpha solver
        # reports the extrapolated threshold, the grid oracle clamps to q,
        # and both imply a zero sleep count
        res_a = solve(PARAMS, CFG, VISettings(epsilon=1e-6))
        b_a = harvest_crossover(res_a.value, PARAMS, CFG)
        b_g = grid_crossover(*grid_solve(PARAMS, CFG, epsilon=1e-6, resolution=1e-4), PARAMS, CFG)
        assert b_a <= PARAMS.q and b_g <= PARAMS.q
        assert ThresholdPolicy(_sleep_count(b_a, PARAMS)).sleep_slots == 0
        assert ThresholdPolicy(_sleep_count(b_g, PARAMS)).sleep_slots == 0

    def test_harvest_slope_dominates_sleep_slopes_at_fixed_point(self):
        res = solve(PARAMS, CFG, VISettings(epsilon=1e-8))
        v = res.value
        v_fail = v.value(PARAMS.q)
        v_good = v.value(1.0 - PARAMS.p)
        beta_h = CFG.r0 + CFG.r1 + CFG.gamma * (v_good - v_fail)
        max_sleep_slope = max(CFG.gamma * line.beta * PARAMS.persistence for line in v.lines)
        assert beta_h >= max_sleep_slope


def brute_force_difference_range(v1, v2):
    """(min, max) of v1 - v2 with each envelope evaluated as the max over
    all of its lines at every point of the breakpoint union."""
    pts = sorted({v1.lo, v1.hi, *v1.breakpoints(), *v2.breakpoints()})
    diffs = [
        max(a + b * x for a, b in v1.lines) - max(a + b * x for a, b in v2.lines) for x in pts
    ]
    return min(diffs), max(diffs)


def envelope(lines, lo, hi):
    return PiecewiseLinearValue(lines=prune_lines(lines, lo, hi), lo=lo, hi=hi)


line_lists = st.lists(
    st.tuples(st.floats(-100, 100), st.floats(0, 100)).map(lambda t: AlphaVector(*t)),
    min_size=1,
    max_size=24,
)


class TestDifferenceRange:
    @given(line_lists, line_lists, st.floats(0.0, 0.45), st.floats(0.55, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_merge_walk_matches_brute_force(self, lines1, lines2, lo, hi):
        v1, v2 = envelope(lines1, lo, hi), envelope(lines2, lo, hi)
        got = difference_range(v1, v2)
        want = brute_force_difference_range(v1, v2)
        scale = max(abs(ln.alpha) + abs(ln.beta) for ln in (*v1.lines, *v2.lines))
        tol = 8 * math.ulp(scale)
        assert got[0] == pytest.approx(want[0], abs=tol)
        assert got[1] == pytest.approx(want[1], abs=tol)
        assert sup_difference(v1, v2) == max(-got[0], got[1])

    @given(line_lists, line_lists)
    @settings(max_examples=100, deadline=None)
    def test_extremes_bound_a_dense_grid(self, lines1, lines2):
        # the breakpoint union holds the extremes: no grid point beats them
        v1, v2 = envelope(lines1, 0.2, 0.8), envelope(lines2, 0.2, 0.8)
        d_min, d_max = difference_range(v1, v2)
        grid = np.linspace(0.2, 0.8, 601)
        d = v1.value(grid) - v2.value(grid)
        assert d.min() >= d_min - 1e-9 and d.max() <= d_max + 1e-9

    @given(valid_params(), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_on_backups(self, params, n):
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
        v = zero_alpha_value(params)
        for _ in range(n):
            v_next = bellman_backup_alpha(v, params, cfg)
            got = difference_range(v_next, v)
            want = brute_force_difference_range(v_next, v)
            tol = 8 * math.ulp(max(abs(v_next.value(v.lo)), abs(v_next.value(v.hi)), 1.0))
            assert got == pytest.approx(want, abs=tol)
            v = v_next


class TestSpanStopping:
    @given(
        valid_params(),
        st.sampled_from([(10.0, 1.0), (10.0, 10.0), (1.0, 10.0)]),
        st.sampled_from([0.5, 0.9, 0.95]),
        st.sampled_from([1e-2, 1e-4, 1e-6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_within_half_epsilon_of_fixed_point(self, params, rewards, gamma, eps):
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        res = solve(params, cfg, VISettings(epsilon=eps))
        ref = solve(params, cfg, VISettings(epsilon=1e-10))
        # the reference is itself within 5e-11 of the fixed point
        assert sup_difference(res.value, ref.value) <= eps / 2 + 5e-11 + 1e-12

    @pytest.mark.parametrize("gamma", [0.999, 0.9999, 0.99999])
    @pytest.mark.parametrize("pi_g,t_b", [(0.6, 2.5), (0.3, 8.0)])
    def test_gamma_near_one_matches_closed_form(self, pi_g, t_b, gamma):
        # a rule that needs ~1/(1 - gamma) backups would exhaust this
        # budget; on these fast-mixing chains the span rule needs hundreds
        params = from_burst_parameterization(pi_g, t_b)
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=gamma)
        settings_ = VISettings(epsilon=1e-6, max_iterations=10_000)
        via_vi, _ = vi_threshold_policy(params, cfg, settings_)
        direct, _ = optimal_sleep_time(params, cfg)
        assert via_vi == direct


def random_chain(rng) -> GEParams:
    """A chain with pi_G uniform and persistence 1 - p - q log-uniform
    on [0.01, 0.99], so that slowly mixing chains are drawn often."""
    s = math.exp(rng.uniform(math.log(0.01), math.log(0.99)))
    pi_g = rng.uniform(0.02, 0.98)
    return GEParams(p=s * (1.0 - pi_g), q=s * pi_g)


REWARDS = st.sampled_from([(10.0, 1.0), (10.0, 10.0), (1.0, 10.0)])


class TestPolicySteps:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999]),
        REWARDS,
        st.sampled_from([1e-2, 1e-4, 1e-6]),
    )
    # epsilon 1e-2 lets the two greedy counts, 16 and 17, part by 5.9e-6 in v_good
    @example(seed=3242, gamma=0.9, rewards=(1.0, 10.0), eps=1e-2)
    @settings(max_examples=100, deadline=None)
    def test_matches_plain_loop(self, seed, gamma, rewards, eps):
        params = random_chain(np.random.default_rng(seed))
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        res = solve(params, cfg, VISettings(epsilon=eps))
        ref = plain_solve(params, cfg, VISettings(epsilon=eps))
        # each lies within epsilon/2 of the fixed point
        assert sup_difference(res.value, ref.value) <= eps
        if gamma == 0.0:
            # the first backup is exact, and no policy step follows it
            assert res == ref and res.iterations == 1
        n_res, n_ref = res.sleep_slots, ref.sleep_slots
        if n_res != n_ref:
            # criterion 1's rule: one slot apart, at a closed-form value tie.
            # Greedy on an epsilon/2-accurate value, each count is within
            # gamma epsilon / (1 - gamma) of the optimum (Singh & Yee 1994),
            # which is the tie tolerance where it exceeds 1e-6
            assert n_res is not None and n_ref is not None and abs(n_res - n_ref) == 1
            v_res, v_ref = (policy_value_linear_system(n, params, cfg).v_good for n in (n_res, n_ref))
            assert abs(v_res - v_ref) < max(1e-6, gamma * eps / (1.0 - gamma))

    @given(valid_params(), st.sampled_from([0.5, 0.9, 0.99]), REWARDS)
    @settings(max_examples=100, deadline=None)
    def test_priced_optimum_matches_closed_form(self, params, gamma, rewards):
        # at the optimal count no belief gains by sleeping fewer slots
        # first, so the priced envelope passes through the closed-form
        # values at q and 1-p
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        policy, value = optimal_sleep_time(params, cfg)
        if policy.never_harvest:
            return
        v = _policy_value(policy.sleep_slots, params, cfg)
        assert v.value(params.q) == pytest.approx(value.v_fail, rel=1e-9, abs=1e-9)
        assert v.value(1.0 - params.p) == pytest.approx(value.v_good, rel=1e-9, abs=1e-9)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999]),
        REWARDS,
        st.integers(0, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_policy_step_matches_basis_solve(self, seed, gamma, rewards, n):
        params = random_chain(np.random.default_rng(seed))
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        got = _policy_value(n, params, cfg)
        ref = basis_policy_value(n, params, cfg)
        # the 2x2 determinant loses digits like 1/(1-gamma), relative to
        # the size of the values
        tol = 16 * np.finfo(float).eps * max(rewards) / (1.0 - gamma) ** 2
        for b in (params.q, 1.0 - params.p):
            assert abs(got.value(b) - ref.value(b)) <= tol

    @given(
        valid_params(),
        st.sampled_from([0.5, 0.9, 0.99]),
        REWARDS,
        st.sampled_from([1e-2, 1e-4, 1e-6]),
    )
    @settings(max_examples=100, deadline=None)
    def test_solve_values_match_closed_form(self, params, gamma, rewards, eps):
        # solve lands within epsilon/2 of the fixed point, and the closed
        # form gives the fixed point at q and 1-p when the optimum harvests
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        policy, value = optimal_sleep_time(params, cfg)
        if policy.never_harvest:
            return
        v = solve(params, cfg, VISettings(epsilon=eps)).value
        slack = 1e-12 * max(rewards) / (1.0 - gamma)
        assert abs(v.value(params.q) - value.v_fail) <= eps / 2 + slack
        assert abs(v.value(1.0 - params.p) - value.v_good) <= eps / 2 + slack

    @given(
        valid_params(),
        st.sampled_from([0.0, 0.5, 0.9, 0.99]),
        REWARDS,
        st.sampled_from([1e-2, 1e-4, 1e-6]),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_carries_its_greedy_policy(self, params, gamma, rewards, eps):
        # the crossover and count of the returned value, as a caller would
        # read them off it
        cfg = RewardConfig(r1=rewards[0], r0=rewards[1], gamma=gamma)
        res = solve(params, cfg, VISettings(epsilon=eps))
        bbar = harvest_crossover(res.value, params, cfg)
        assert res.crossover.hex() == bbar.hex()
        assert res.sleep_slots == _sleep_count(bbar, params)

    # slowly mixing chains (p + q down to 1.4e-9), where an early
    # iterate's crossover implies counts near 1e9: ending the steps there
    # instead of clamping ran for minutes on the first two and took 2062
    # backups on the third
    @pytest.mark.parametrize(
        "p,q,r1,r0,gamma,eps",
        [
            (4e-8, 1e-7, 10.0, 1.0, 0.999, 1e-4),
            (4e-8, 1e-7, 10.0, 10.0, 0.999, 1e-6),
            (4e-10, 1e-9, 10.0, 1.0, 0.99, 1e-6),
        ],
    )
    def test_clamped_steps_solve_slowly_mixing_chains(self, p, q, r1, r0, gamma, eps):
        params, cfg = GEParams(p=p, q=q), RewardConfig(r1=r1, r0=r0, gamma=gamma)
        start = time.perf_counter()
        res = solve(params, cfg, VISettings(epsilon=eps, max_iterations=20))
        assert time.perf_counter() - start < 10.0
        # values at 1-p only: the counts, and the values at q, are
        # ill-conditioned here (one slot moves the wake-up belief by ~q (p+q))
        _, value = optimal_sleep_time(params, cfg)
        slack = 1e-12 * max(r1, r0) / (1.0 - gamma)
        assert abs(res.value.value(1.0 - p) - value.v_good) <= eps / 2 + slack

    def test_long_sleep_ends_policy_steps(self, monkeypatch):
        # a negative cap switches the policy steps off, so solve is the
        # plain loop backup for backup
        monkeypatch.setattr(value_iteration, "MAX_STEP_SLEEP", -1)
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99)
        params = GEParams(p=0.0026, q=0.05)
        assert solve(params, cfg, VISettings(epsilon=1e-6)) == plain_solve(
            params, cfg, VISettings(epsilon=1e-6)
        )

    def test_never_wake_value(self):
        # harvest while succeeding, never after a failure: a run of
        # successes is the whole value after a success, and a failure
        # belief earns 0 unless harvesting once more pays there
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.9)
        v = _policy_value(None, PARAMS, cfg)
        p, q, g = PARAMS.p, PARAMS.q, cfg.gamma
        run = (cfg.r1 * (1.0 - p) - cfg.r0 * p) / (1.0 - g * (1.0 - p))
        assert v.value(1.0 - p) == pytest.approx(run, rel=1e-12)
        once = (cfg.r0 + cfg.r1) * q - cfg.r0 + g * q * run
        assert v.value(q) == pytest.approx(max(0.0, once), rel=1e-12)

    def test_never_harvest_cell(self):
        # the first backup already harvests nowhere: no policy step, and
        # the value is exactly zero
        params = from_burst_parameterization(0.6, 2.5)
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
        res = solve(params, cfg, VISettings(epsilon=1e-6))
        assert res.iterations == 1
        assert res.value.lines == (AlphaVector(0.0, 0.0),)
        bbar = harvest_crossover(res.value, params, cfg)
        assert bbar > 1.0 - params.p
        assert ThresholdPolicy(_sleep_count(bbar, params)) == ThresholdPolicy(None)
        assert optimal_sleep_time(params, cfg)[0] == ThresholdPolicy(None)

    def test_never_wake_cell_is_never_harvest(self):
        # harvesting pays after a success but never after a failure; the
        # closed form calls that never harvesting
        params = from_burst_parameterization(0.5, 15.0)
        cfg = RewardConfig(r1=1.0, r0=10.0, gamma=0.99)
        res = solve(params, cfg, VISettings(epsilon=1e-6))
        bbar = harvest_crossover(res.value, params, cfg)
        assert bbar <= 1.0 - params.p and _sleep_count(bbar, params) is None
        assert optimal_sleep_time(params, cfg)[0] == ThresholdPolicy(None)
        ref = plain_solve(params, cfg, VISettings(epsilon=1e-6))
        assert sup_difference(res.value, ref.value) <= 1e-6

    def test_never_wake_first_policy(self):
        # the first greedy policy never wakes after a failure, which no
        # sleep count expresses; the steps still reach the optimum N = 9
        params = from_burst_parameterization(0.3, 8.0)
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.99999)
        v1 = bellman_backup_alpha(zero_alpha_value(params), params, cfg)
        bbar = harvest_crossover(v1, params, cfg)
        assert bbar <= 1.0 - params.p and _sleep_count(bbar, params) is None
        settings_ = VISettings(epsilon=1e-6, max_iterations=50)
        via_vi, _ = vi_threshold_policy(params, cfg, settings_)
        assert via_vi == optimal_sleep_time(params, cfg)[0] == ThresholdPolicy(9)

    def test_slowly_mixing_chain_within_budget(self):
        # persistence 0.998: the plain loop needs 231,306 backups here
        params = from_burst_parameterization(0.5, 1000.0)
        cfg = RewardConfig(r1=10.0, r0=10.0, gamma=0.9999)
        settings_ = VISettings(epsilon=1e-6, max_iterations=50)
        via_vi, _ = vi_threshold_policy(params, cfg, settings_)
        assert via_vi == optimal_sleep_time(params, cfg)[0] == ThresholdPolicy(44)


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
    # epsilon defaults to 1e-4 of the reward scale
    assert VISettings().resolved_epsilon(CFG) == pytest.approx(1e-4 * CFG.r1)
