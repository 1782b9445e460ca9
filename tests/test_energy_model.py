"""Radio energy model."""

import pytest

from repro.mac.energy import RadioEnergyModel


def test_airtime_includes_overhead():
    radio = RadioEnergyModel(datarate_bps=250_000, per_packet_overhead_s=0.015)
    assert radio.airtime(6400) == pytest.approx(0.015 + 0.0256)


def test_transmit_energy():
    radio = RadioEnergyModel(datarate_bps=250_000, tx_power_watts=0.1, per_packet_overhead_s=0.0)
    assert radio.transmit_energy(2_500_000) == pytest.approx(1.0)


def test_receive_energy_cheaper_than_transmit():
    radio = RadioEnergyModel()
    assert radio.receive_energy(6400) < radio.transmit_energy(6400)


def test_round_trip_energy_is_sum():
    radio = RadioEnergyModel()
    assert radio.round_trip_energy(6400) == pytest.approx(
        radio.transmit_energy(6400) + radio.receive_energy(6400)
    )


def test_overhead_makes_small_packets_disproportionately_expensive():
    """The paper's observation: an ACK costs a significant fraction of a data packet."""
    radio = RadioEnergyModel()
    data = radio.transmit_energy(828 * 8)
    ack = radio.transmit_energy(228 * 8)
    assert ack > 0.3 * data




def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        RadioEnergyModel(datarate_bps=0)
    with pytest.raises(ValueError):
        RadioEnergyModel(tx_power_watts=-1)
    with pytest.raises(ValueError):
        RadioEnergyModel(per_packet_overhead_s=-0.1)


def test_energy_proportional_to_airtime():
    radio = RadioEnergyModel(per_packet_overhead_s=0.0)
    assert radio.transmit_energy(2000) == pytest.approx(2 * radio.transmit_energy(1000))
