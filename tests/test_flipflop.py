"""Flip-flop filter with statistical control limits (Section 5.1)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.flipflop import FlipFlopFilter


def make_filter(**overrides):
    defaults = {"alpha_stable": 0.1, "alpha_agile": 0.6, "beta": 0.1, "outlier_trigger_count": 3}
    defaults.update(overrides)
    return FlipFlopFilter(**defaults)


def test_first_sample_initialises_per_paper():
    flt = make_filter()
    reading = flt.update(10.0)
    assert reading.mean == 10.0
    assert reading.deviation == pytest.approx(5.0)  # R̄ = x0 / 2
    assert not reading.is_outlier


def test_mean_follows_ewma_equation():
    flt = make_filter(alpha_stable=0.5)
    flt.update(10.0)
    reading = flt.update(20.0)
    assert reading.mean == pytest.approx(15.0)


def test_control_limits_use_3_sigma_over_d2():
    flt = make_filter()
    flt.update(10.0)
    expected_half_width = 3.0 * 5.0 / 1.128
    assert flt.upper_control_limit == pytest.approx(10.0 + expected_half_width)
    assert flt.lower_control_limit == pytest.approx(10.0 - expected_half_width)


def test_stable_samples_are_not_outliers():
    flt = make_filter()
    rng = random.Random(1)
    readings = [flt.update(10.0 + rng.uniform(-0.5, 0.5)) for _ in range(100)]
    assert sum(1 for r in readings[5:] if r.is_outlier) == 0
    assert not readings[-1].agile


def test_persistent_change_triggers_agile_filter():
    flt = make_filter()
    for _ in range(30):
        flt.update(10.0)
    readings = [flt.update(30.0) for _ in range(6)]
    assert any(r.triggered for r in readings)
    assert flt.triggers == 1


def test_single_spike_does_not_trigger():
    flt = make_filter(outlier_trigger_count=3)
    for _ in range(30):
        flt.update(10.0)
    spike = flt.update(50.0)
    assert spike.is_outlier
    assert not spike.triggered
    after = flt.update(10.0)
    assert not after.is_outlier
    assert flt.triggers == 0


def test_agile_filter_catches_up_faster():
    stable_only = make_filter(alpha_stable=0.1, alpha_agile=0.1, outlier_trigger_count=1000)
    flip_flop = make_filter(alpha_stable=0.1, alpha_agile=0.8, outlier_trigger_count=2)
    for flt in (stable_only, flip_flop):
        for _ in range(30):
            flt.update(10.0)
        for _ in range(10):
            flt.update(40.0)
    assert abs(flip_flop.mean - 40.0) < abs(stable_only.mean - 40.0)


def test_returns_to_stable_after_catching_up():
    flt = make_filter(alpha_agile=0.9, outlier_trigger_count=2)
    for _ in range(20):
        flt.update(10.0)
    readings = [flt.update(40.0) for _ in range(20)]
    assert any(r.agile for r in readings)
    assert not readings[-1].agile  # mean caught up, samples back inside limits


def test_trigger_count_resets_on_in_control_sample():
    flt = make_filter(outlier_trigger_count=3)
    for _ in range(20):
        flt.update(10.0)
    flt.update(50.0)
    flt.update(50.0)
    flt.update(10.0)   # breaks the run of outliers
    reading = flt.update(50.0)
    assert not reading.triggered


def test_invalid_parameters():
    with pytest.raises(ValueError):
        FlipFlopFilter(alpha_stable=0.5, alpha_agile=0.1)
    with pytest.raises(ValueError):
        FlipFlopFilter(alpha_stable=1.5)
    with pytest.raises(ValueError):
        FlipFlopFilter(sigma=0)


@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=200))
def test_mean_stays_finite_and_bounded(samples):
    flt = make_filter()
    for sample in samples:
        flt.update(sample)
    assert min(samples) - 1e-6 <= flt.mean <= max(samples) + 1e-6


@given(st.floats(min_value=0.1, max_value=1e3))
def test_constant_signal_never_triggers(value):
    flt = make_filter()
    for _ in range(50):
        reading = flt.update(value)
    assert flt.triggers == 0
    assert flt.mean == pytest.approx(value)
