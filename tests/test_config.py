"""JTP configuration defaults and validation (Table 1)."""

import pytest

from repro.core.config import FeedbackMode, JTPConfig


def test_table1_defaults():
    config = JTPConfig()
    assert config.max_attempts == 5
    assert config.packet_size_bytes == 800.0
    assert config.cache_size == 1000
    assert config.t_lower_bound == 10.0


def test_prototype_header_sizes():
    config = JTPConfig()
    assert config.header_bytes == 28.0
    assert config.ack_header_bytes == 200.0
    assert config.data_packet_bytes == 828.0
    assert config.ack_packet_bytes == 228.0


def test_variant_overrides_single_field():
    base = JTPConfig()
    derived = base.variant(loss_tolerance=0.1)
    assert derived.loss_tolerance == 0.1
    assert derived.cache_size == base.cache_size
    assert base.loss_tolerance == 0.0


def test_named_constructors():
    assert JTPConfig.jtp0().loss_tolerance == 0.0
    assert JTPConfig.jtp10().loss_tolerance == pytest.approx(0.10)
    assert JTPConfig.jtp20().loss_tolerance == pytest.approx(0.20)
    assert JTPConfig.no_caching().caching_enabled is False


def test_no_caching_accepts_overrides():
    config = JTPConfig.no_caching(loss_tolerance=0.2)
    assert not config.caching_enabled
    assert config.loss_tolerance == 0.2


def test_defaults_use_variable_feedback_and_backoff():
    config = JTPConfig()
    assert config.feedback_mode is FeedbackMode.VARIABLE
    assert config.backoff_enabled


@pytest.mark.parametrize("field,value", [
    ("loss_tolerance", 1.5),
    ("max_attempts", 0),
    ("cache_size", 0),
    ("packet_size_bytes", -1),
    ("kd", 1.0),
    ("ki", 0.0),
    ("beta_energy", 1.0),
    ("ack_timeout_multiplier", 0.5),
    ("min_rate_pps", 0.0),
])
def test_invalid_values_rejected(field, value):
    with pytest.raises(ValueError):
        JTPConfig(**{field: value})


def test_min_rate_cannot_exceed_max_rate():
    with pytest.raises(ValueError):
        JTPConfig(min_rate_pps=5.0, max_rate_pps=1.0)


def test_agile_alpha_must_dominate_stable():
    with pytest.raises(ValueError):
        JTPConfig(alpha_stable=0.8, alpha_agile=0.2)


def test_controller_gain_constraints_match_stability_analysis():
    """Section 5.2.2: any K_I > 0 and K_D < 1 converge; the config enforces that."""
    config = JTPConfig()
    assert 0 < config.ki <= 1
    assert 0 < config.kd < 1
