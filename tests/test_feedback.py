"""Feedback scheduling (Section 5.1)."""

import pytest

from repro.core.config import FeedbackMode, JTPConfig
from repro.core.feedback import FeedbackScheduler


def test_variable_period_floor_is_t_lower_bound():
    scheduler = FeedbackScheduler(JTPConfig(t_lower_bound=10.0, feedback_n=4.0))
    # At 2 pkt/s, n/rate = 2 s which is below the 10 s floor.
    assert scheduler.variable_period(sending_rate=2.0) == pytest.approx(10.0)


def test_variable_period_tracks_low_rates():
    scheduler = FeedbackScheduler(JTPConfig(t_lower_bound=10.0, feedback_n=4.0))
    # At 0.2 pkt/s, n/rate = 20 s dominates the floor.
    assert scheduler.variable_period(sending_rate=0.2) == pytest.approx(20.0)


def test_feedback_never_faster_than_data():
    config = JTPConfig(t_lower_bound=1.0, feedback_n=2.0)
    scheduler = FeedbackScheduler(config)
    for rate in (0.5, 1.0, 3.0):
        assert scheduler.variable_period(rate) >= config.feedback_n / rate - 1e-9


def test_cache_limited_period():
    config = JTPConfig(cache_size=100)
    scheduler = FeedbackScheduler(config)
    # 100 packets of cache at 5 pkt/s minus 2 s of RTT.
    assert scheduler.cache_limited_period(sending_rate=5.0, rtt=2.0) == pytest.approx(18.0)


def test_cache_cap_bounds_the_variable_period():
    config = JTPConfig(cache_size=4, t_lower_bound=60.0)
    scheduler = FeedbackScheduler(config)
    period = scheduler.variable_period(sending_rate=2.0, rtt=0.5)
    assert period < 60.0


def test_no_cache_cap_when_caching_disabled():
    scheduler = FeedbackScheduler(JTPConfig(caching_enabled=False))
    assert scheduler.cache_limited_period(2.0, 1.0) is None


def test_constant_mode_uses_configured_period():
    config = JTPConfig(feedback_mode=FeedbackMode.CONSTANT, constant_feedback_period=3.0)
    scheduler = FeedbackScheduler(config)
    assert scheduler.period(sending_rate=5.0) == 3.0


def test_variable_mode_is_default_path():
    scheduler = FeedbackScheduler(JTPConfig())
    assert scheduler.period(sending_rate=2.0) == scheduler.variable_period(2.0)


def test_counters():
    scheduler = FeedbackScheduler()
    scheduler.note_regular_feedback()
    scheduler.note_regular_feedback()
    scheduler.note_early_feedback()
    assert scheduler.regular_feedbacks == 2
    assert scheduler.early_feedbacks == 1


def test_sender_timeout_equals_period():
    scheduler = FeedbackScheduler()
    assert scheduler.sender_timeout(12.0) == 12.0
    with pytest.raises(ValueError):
        scheduler.sender_timeout(0.0)


def test_invalid_rate_rejected():
    scheduler = FeedbackScheduler()
    with pytest.raises(ValueError):
        scheduler.variable_period(0.0)
    with pytest.raises(ValueError):
        scheduler.variable_period(1.0, rtt=-1.0)
