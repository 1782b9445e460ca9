"""ARQ policy."""

import pytest

from repro.mac.arq import ArqPolicy


def test_defaults_match_table1():
    policy = ArqPolicy()
    assert policy.max_attempts == 5
    assert policy.default_attempts == 5


def test_attempts_for_none_uses_default():
    policy = ArqPolicy(default_attempts=3, max_attempts=5)
    assert policy.attempts_for(None) == 3


def test_attempts_for_clamps_to_max():
    policy = ArqPolicy(default_attempts=3, max_attempts=5)
    assert policy.attempts_for(9) == 5


def test_attempts_for_minimum_one():
    policy = ArqPolicy()
    assert policy.attempts_for(0) == 1
    assert policy.attempts_for(-3) == 1


def test_attempts_for_within_bounds_passthrough():
    policy = ArqPolicy()
    assert policy.attempts_for(2) == 2


def test_retry_delay():
    policy = ArqPolicy(retry_spacing_slots=2)
    assert policy.retry_delay(0.05) == pytest.approx(0.1)


def test_default_cannot_exceed_max():
    with pytest.raises(ValueError):
        ArqPolicy(default_attempts=6, max_attempts=5)


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        ArqPolicy(default_attempts=0)
    with pytest.raises(ValueError):
        ArqPolicy(max_attempts=0)

