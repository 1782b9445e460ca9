"""Unit conversions used by the energy accounting."""

import pytest

from repro.util.units import BITS_PER_BYTE, bits_from_bytes, joules_to_microjoules, transmission_time


def test_bits_per_byte_constant():
    assert BITS_PER_BYTE == 8


def test_bits_from_bytes_roundtrip():
    assert bits_from_bytes(100) == 800
    assert bits_from_bytes(123.5) / BITS_PER_BYTE == pytest.approx(123.5)


def test_joule_conversions():
    assert joules_to_microjoules(2e-6) == pytest.approx(2.0)


def test_transmission_time_basic():
    # 250 kbit/s radio, 800-byte packet -> 25.6 ms of airtime.
    assert transmission_time(6400, 250_000) == pytest.approx(0.0256)


def test_transmission_time_zero_bits():
    assert transmission_time(0, 250_000) == 0.0


def test_transmission_time_rejects_bad_rate():
    with pytest.raises(ValueError):
        transmission_time(100, 0)
    with pytest.raises(ValueError):
        transmission_time(100, -1)


def test_transmission_time_rejects_negative_bits():
    with pytest.raises(ValueError):
        transmission_time(-1, 250_000)

