"""PI²/MD rate controller and energy budget controller (Section 5.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import JTPConfig
from repro.core.rate_controller import (
    EnergyBudgetController,
    PIMDRateController,
    simulate_rate_convergence,
)


class TestPIMDController:
    def test_increase_when_capacity_available(self):
        config = JTPConfig(delta_target_pps=0.5)
        controller = PIMDRateController(config, initial_rate=1.0)
        new_rate = controller.update(available_rate=4.0)
        assert new_rate == pytest.approx(min(1.0 + config.ki * 4.0 / 1.0, config.max_rate_pps))
        assert controller.increases == 1

    def test_multiplicative_decrease_when_congested(self):
        config = JTPConfig(delta_target_pps=0.5, kd=0.8)
        controller = PIMDRateController(config, initial_rate=4.0)
        assert controller.update(available_rate=0.1) == pytest.approx(3.2)
        assert controller.decreases == 1

    def test_increase_inversely_proportional_to_rate(self):
        config = JTPConfig(max_rate_pps=100.0)
        slow = PIMDRateController(config, initial_rate=1.0)
        fast = PIMDRateController(config, initial_rate=5.0)
        slow_gain = slow.update(4.0) - 1.0
        fast_gain = fast.update(4.0) - 5.0
        assert slow_gain > fast_gain

    def test_rate_clamped_to_bounds(self):
        config = JTPConfig(min_rate_pps=0.5, max_rate_pps=3.0)
        controller = PIMDRateController(config, initial_rate=2.9)
        for _ in range(10):
            controller.update(available_rate=10.0)
        assert controller.rate_pps == 3.0
        for _ in range(20):
            controller.update(available_rate=0.0)
        assert controller.rate_pps == 0.5

    def test_delivery_limit_applies(self):
        controller = PIMDRateController(JTPConfig(), initial_rate=1.0)
        rate = controller.update(available_rate=6.0, delivery_limit=1.5)
        assert rate <= 1.5


class TestEnergyBudgetController:
    def test_budget_is_beta_times_ucl(self):
        config = JTPConfig(beta_energy=1.5)
        controller = EnergyBudgetController(config)
        assert controller.update(0.02) == pytest.approx(0.03)

    def test_no_samples_keeps_previous_budget(self):
        controller = EnergyBudgetController()
        assert controller.update(None) is None
        budget = controller.update(0.01)
        assert controller.update(None) == pytest.approx(budget)

    def test_budget_or_default(self):
        controller = EnergyBudgetController()
        assert controller.budget_or(9.0) == 9.0
        controller.update(0.02)
        assert controller.budget_or(9.0) != 9.0

    def test_budget_exceeds_observed_ucl(self):
        """Eq. 13 requires beta > 1 so outliers remain detectable."""
        controller = EnergyBudgetController()
        assert controller.update(0.05) > 0.05


class TestConvergenceModel:
    def test_converges_from_below(self):
        trajectory = simulate_rate_convergence(capacity=10.0, initial_rate=1.0, ki=0.5, kd=0.5)
        assert trajectory.converged
        assert trajectory.rates[-1] == pytest.approx(10.0, rel=0.05)

    def test_converges_from_above(self):
        trajectory = simulate_rate_convergence(capacity=5.0, initial_rate=50.0, ki=0.5, kd=0.5)
        assert trajectory.converged

    def test_higher_ki_ramps_up_faster(self):
        def first_index_reaching(trajectory, level):
            return next(i for i, rate in enumerate(trajectory.rates) if rate >= level)

        slow = simulate_rate_convergence(10.0, 1.0, ki=0.1, kd=0.5)
        fast = simulate_rate_convergence(10.0, 1.0, ki=0.9, kd=0.5)
        assert first_index_reaching(fast, 9.0) <= first_index_reaching(slow, 9.0)

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError):
            simulate_rate_convergence(10.0, 1.0, ki=0.5, kd=1.0)
        with pytest.raises(ValueError):
            simulate_rate_convergence(10.0, 1.0, ki=0.0, kd=0.5)
        with pytest.raises(ValueError):
            simulate_rate_convergence(0.0, 1.0, ki=0.5, kd=0.5)

    @settings(max_examples=50)
    @given(
        capacity=st.floats(min_value=0.5, max_value=100.0),
        initial=st.floats(min_value=0.1, max_value=200.0),
        ki=st.floats(min_value=0.05, max_value=1.0),
        kd=st.floats(min_value=0.1, max_value=0.95),
    )
    def test_lyapunov_distance_decreases_within_a_region(self, capacity, initial, ki, kd):
        """Section 5.2.2: |C - r| shrinks on every step that stays in one region.

        The paper's Lyapunov argument covers the two operating regions
        (r < C and r > C) separately; a step that crosses the capacity
        (overshoot of the PI² increase, undershoot of the MD decrease)
        is where the discrete system can oscillate, so those steps are
        excluded here and covered by the boundedness test below.
        """
        trajectory = simulate_rate_convergence(capacity, initial, ki=ki, kd=kd, iterations=50)
        rates = trajectory.rates
        for before, after in zip(rates, rates[1:], strict=False):
            same_region = (before < capacity and after <= capacity) or (before > capacity and after >= capacity)
            if same_region:
                assert abs(capacity - after) <= abs(capacity - before) + 1e-9

    @settings(max_examples=30)
    @given(
        capacity=st.floats(min_value=1.0, max_value=50.0),
        ki=st.floats(min_value=0.1, max_value=1.0),
        kd=st.floats(min_value=0.2, max_value=0.9),
    )
    def test_rate_ends_in_a_bounded_band_around_capacity(self, capacity, ki, kd):
        """With valid gains the rate ends up circling the capacity, not diverging."""
        trajectory = simulate_rate_convergence(capacity, capacity / 4, ki=ki, kd=kd, iterations=500)
        tail = trajectory.rates[-50:]
        # Steady-state excursions are bounded: at most one multiplicative
        # decrease below the capacity, at most one PI² increase above it
        # (the increase step K_I (C - r)/r is largest at r = K_D C).
        lower = 0.9 * kd * capacity
        upper = capacity + ki * (1.0 - kd) / kd + 1e-9
        assert all(lower <= rate <= upper for rate in tail)
