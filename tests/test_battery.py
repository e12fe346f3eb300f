"""Tests for the embedded battery chain and its absorption analysis."""

import io

import numpy as np
import pytest

from rfharvest.battery import (
    BatteryConfig,
    PolicyNeverHarvests,
    SWEEP_CSV_HEADER,
    absorption_analysis,
    build_chain,
    build_chain_from_success_probs,
    simulate_chain,
    sweep_initial_levels,
    write_sweep_csv,
)
from rfharvest.gilbert_elliott import GEParams, from_burst_parameterization
from rfharvest.threshold import ThresholdPolicy

PARAMS = GEParams(p=0.2, q=0.3)


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
        with pytest.raises(ValueError):
            BatteryConfig(capacity=10, gain=0)


class TestBuildChain:
    def test_rejects_never_harvest(self):
        with pytest.raises(PolicyNeverHarvests):
            build_chain(PARAMS, ThresholdPolicy.never(), BatteryConfig(capacity=10))

    def test_rows_sum_to_one(self):
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(2), BatteryConfig(capacity=12))
        totals = chain.transient.sum(axis=1) + chain.absorbing.sum(axis=1)
        np.testing.assert_allclose(totals, 1.0, atol=1e-12)

    def test_two_step_success_probability_by_hand(self):
        # two-step bad-to-good: q(1-p) + (1-q)q = 0.45 at (p, q) = (0.2, 0.3)
        chain = build_chain(PARAMS, ThresholdPolicy.sleep(1), BatteryConfig(capacity=10))
        assert chain.success_after_failure == pytest.approx(0.45, abs=1e-12)
        assert chain.success_after_success == pytest.approx(0.8, abs=1e-12)
        assert chain.slot_weights[0] == 1.0
        assert chain.slot_weights[-1] == 2.0

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
