"""EWMA and windowed-rate estimators."""

import pytest
from hypothesis import given, strategies as st

from repro.util.ewma import EWMA, WindowedRate


class TestEWMA:
    def test_first_sample_initialises(self):
        ewma = EWMA(0.1)
        assert ewma.value_or(-1.0) == -1.0
        assert ewma.update(10.0) == 10.0
        assert ewma.value_or(-1.0) == 10.0

    def test_update_formula(self):
        ewma = EWMA(0.5, initial=10.0)
        assert ewma.update(20.0) == pytest.approx(15.0)
        assert ewma.update(20.0) == pytest.approx(17.5)

    def test_value_or_default(self):
        assert EWMA(0.5).value_or(7.0) == 7.0
        assert EWMA(0.5, initial=3.0).value_or(7.0) == 3.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            EWMA(1.5)
        with pytest.raises(ValueError):
            EWMA(-0.1)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=1.0))
    def test_ewma_stays_within_sample_range(self, samples, alpha):
        """The average never escapes the [min, max] of observed samples."""
        ewma = EWMA(alpha)
        for sample in samples:
            average = ewma.update(sample)
        assert min(samples) - 1e-9 <= average <= max(samples) + 1e-9

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_constant_input_is_fixed_point(self, value):
        ewma = EWMA(0.3)
        for _ in range(10):
            ewma.update(value)
        assert ewma.value_or(-1.0) == pytest.approx(value)


class TestWindowedRate:
    def test_rate_over_full_window(self):
        meter = WindowedRate(window=10.0)
        for t in range(5):
            meter.record(float(t * 3), 2.0)
        # First record at t=0; by t=12 the full window has been observed,
        # so the divisor is the window itself (events at 3, 6, 9, 12 remain).
        assert meter.rate(12.0) == pytest.approx(8.0 / 10.0)

    def test_warmup_divides_by_observed_span(self):
        # Before `window` seconds have been observed, dividing by the full
        # window would deflate the rate; the divisor is the observed span.
        meter = WindowedRate(window=10.0)
        for t in range(5):
            meter.record(float(t), 2.0)
        assert meter.rate(5.0) == pytest.approx(10.0 / 5.0)

    def test_warmup_rate_at_first_instant_uses_window(self):
        # Zero observed span: no span-based rate is defined yet, so the
        # meter falls back to the full-window convention.
        meter = WindowedRate(window=4.0)
        meter.record(0.0, 2.0)
        assert meter.rate(0.0) == pytest.approx(0.5)

    def test_explicit_start_time_counts_idle_warmup(self):
        # A meter told it started observing at t=0 divides by the span
        # since then, not since its (later) first event.
        meter = WindowedRate(window=10.0, start=0.0)
        meter.record(4.0, 3.0)
        assert meter.rate(5.0) == pytest.approx(3.0 / 5.0)

    def test_events_expire(self):
        meter = WindowedRate(window=10.0)
        meter.record(0.0, 5.0)
        assert meter.rate(5.0) == pytest.approx(1.0)  # warm-up span is 5 s
        assert meter.rate(20.0) == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedRate(0.0)
