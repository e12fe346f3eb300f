"""Tests for the two-state arrival chain."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.gilbert_elliott import (
    GEParams,
    from_burst_parameterization,
    is_valid_chain,
    simulate,
    stationary,
)


def valid_params():
    """Strategy over (p, q) with 1 - p > q strictly."""
    return (
        st.tuples(
            st.floats(0.01, 0.98),
            st.floats(0.01, 0.98),
        )
        .filter(lambda t: 1.0 - t[0] > t[1] + 1e-9)
        .map(lambda t: GEParams(p=t[0], q=t[1]))
    )


class TestGEParams:
    def test_rejects_out_of_range(self):
        for p, q in [(0.0, 0.3), (1.0, 0.3), (0.2, 0.0), (0.2, 1.0), (-0.1, 0.3)]:
            bad = "p" if not 0.0 < p < 1.0 else "q"
            with pytest.raises(ValueError, match=f"^{bad} must lie strictly inside"):
                GEParams(p=p, q=q)

    def test_rejects_nonpositive_correlation(self):
        with pytest.raises(ValueError, match="positive correlation"):
            GEParams(p=0.5, q=0.5)  # 1 - p == q
        with pytest.raises(ValueError, match="positive correlation"):
            GEParams(p=0.7, q=0.4)

    @given(
        st.one_of(st.floats(), st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
        st.one_of(st.floats(), st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_valid_chain_iff_params_construct(self, p, q):
        try:
            GEParams(p=p, q=q)
            constructs = True
        except ValueError:
            constructs = False
        assert is_valid_chain(p, q) is constructs

    @pytest.mark.parametrize("p,q", [(1e-9, 2e-9), (4e-7, 1e-6), (0.2, 0.3), (0.6, 0.39)])
    def test_log_persistence_to_full_precision(self, p, q):
        with localcontext() as ctx:
            ctx.prec = 40
            exact = (1 - Decimal(p) - Decimal(q)).ln()
        assert abs(GEParams(p=p, q=q).log_persistence - float(exact)) <= 4e-16 * abs(float(exact))

    def test_log_persistence_where_p_plus_q_rounds_to_one(self):
        # the grid cell pi_g 0.05, t_b 20: p + q == 1.0, 1 - p - q = 4.2e-17
        params = from_burst_parameterization(0.05, 20.0)
        assert params.p + params.q == 1.0 and params.persistence > 0.0
        assert params.log_persistence == math.log(params.persistence)


class TestStationary:
    def test_direct_formula(self):
        pi = stationary(GEParams(p=0.2, q=0.3))
        assert pi.bad == pytest.approx(0.4, abs=1e-15)
        assert pi.good == pytest.approx(0.6, abs=1e-15)

    def test_symmetric_chain(self):
        pi = stationary(GEParams(p=0.3, q=0.3))
        assert pi.bad == pytest.approx(0.5, abs=1e-15)
        assert pi.good == pytest.approx(0.5, abs=1e-15)

    def test_reference_chain_good_probability(self):
        # pi_g = 0.6 at burst length 2.5 corresponds to (p, q) = (0.2667, 0.4)
        pi = stationary(GEParams(p=0.2667, q=0.4))
        assert pi.good == pytest.approx(0.6, abs=1e-4)

    @given(valid_params())
    @settings(max_examples=100)
    def test_fixed_point_of_one_step_propagation(self, params):
        pi = stationary(params)
        propagated = (1.0 - params.p) * pi.good + params.q * pi.bad
        assert abs(propagated - pi.good) <= 1e-12
        assert abs(pi.good + pi.bad - 1.0) <= 1e-12


class TestBurstParameterization:
    def test_reference_point(self):
        params = from_burst_parameterization(pi_g=0.6, t_b=2.5)
        assert params.q == pytest.approx(0.4, abs=1e-12)
        assert params.p == pytest.approx(0.2667, abs=1e-4)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            from_burst_parameterization(pi_g=0.5, t_b=2.0)  # gives 1 - p == q

    @given(valid_params())
    @settings(max_examples=100)
    def test_round_trip(self, params):
        pi_g, t_b = stationary(params).good, 1.0 / params.q
        back = from_burst_parameterization(pi_g, t_b)
        assert back.p == pytest.approx(params.p, rel=1e-9)
        assert back.q == pytest.approx(params.q, rel=1e-9)


class TestSimulate:
    def test_same_seed_same_path(self):
        params = GEParams(p=0.2, q=0.3)
        a = simulate(params, horizon=500, seed=42)
        b = simulate(params, horizon=500, seed=42)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int8 and a.shape == (500,)
        assert not a.flags.writeable

    def test_near_absorbing_limit(self):
        # the stationary start is good with probability 1 - 3.3e-9, and
        # the path then stays good
        params = GEParams(p=1e-9, q=0.3)
        path = simulate(params, horizon=10, seed=7)
        assert path.all()

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            simulate(GEParams(p=0.2, q=0.3), horizon=0, seed=0)

    def test_empirical_transition_frequency(self):
        # G-to-B frequency over 1e6 slots within 3 standard errors of p
        params = GEParams(p=0.2, q=0.3)
        s = simulate(params, horizon=1_000_000, seed=123)
        from_good = s[:-1] == 1
        n_good = int(from_good.sum())
        exits = int(((s[:-1] == 1) & (s[1:] == 0)).sum())
        p_hat = exits / n_good
        se = np.sqrt(params.p * (1.0 - params.p) / n_good)
        assert abs(p_hat - params.p) < 3.0 * se

    def test_long_run_good_fraction(self):
        params = GEParams(p=0.2, q=0.3)
        path = simulate(params, horizon=1_000_000, seed=321)
        pi_g = stationary(params).good
        # autocorrelated chain: variance of the mean inflated by
        # (1 + c) / (1 - c) with c the persistence factor
        c = params.persistence
        se = np.sqrt(pi_g * (1.0 - pi_g) / len(path) * (1.0 + c) / (1.0 - c))
        assert abs(path.mean() - pi_g) < 3.0 * se

    def test_mean_bad_sojourn_length(self):
        params = GEParams(p=0.2, q=0.3)
        s = simulate(params, horizon=1_000_000, seed=99)
        # runs of consecutive zeros
        boundaries = np.flatnonzero(np.diff(s))
        runs = np.diff(np.concatenate([[-1], boundaries, [len(s) - 1]]))
        run_states = s[np.concatenate([boundaries, [len(s) - 1]])]
        bad_runs = runs[run_states == 0]
        mean_len = bad_runs.mean()
        se = bad_runs.std(ddof=1) / np.sqrt(len(bad_runs))
        assert abs(mean_len - 1.0 / params.q) < 3.0 * se
