"""Destination-side path monitor."""

import pytest

from repro.core.config import JTPConfig
from repro.core.packet import Packet, PacketType
from repro.core.path_monitor import PathMonitor


def data_packet(rate=4.0, energy=0.01, seq=0):
    return Packet(flow_id=0, seq=seq, packet_type=PacketType.DATA, src=0, dst=3,
                  payload_bytes=800.0, available_rate_pps=rate, energy_used=energy)


def test_average_available_rate_tracks_samples():
    monitor = PathMonitor()
    for seq in range(30):
        monitor.observe_packet(data_packet(rate=4.0, seq=seq), now=float(seq))
    assert monitor.average_available_rate == pytest.approx(4.0, rel=0.05)
    assert monitor.packets_observed == 30


def test_unstamped_rate_clamped_to_max():
    config = JTPConfig()
    monitor = PathMonitor(config)
    monitor.observe_packet(data_packet(rate=float("inf")), now=0.0)
    assert monitor.average_available_rate <= config.max_rate_pps


def test_energy_ucl_available_after_samples():
    monitor = PathMonitor()
    for seq in range(10):
        monitor.observe_packet(data_packet(energy=0.02, seq=seq), now=float(seq))
    assert monitor.energy_upper_control_limit is not None
    assert monitor.energy_upper_control_limit >= 0.02


def test_zero_energy_packets_do_not_feed_energy_filter():
    monitor = PathMonitor()
    monitor.observe_packet(data_packet(energy=0.0), now=0.0)
    assert monitor.energy_upper_control_limit is None


def test_significant_change_detected_on_rate_collapse():
    monitor = PathMonitor()
    for seq in range(40):
        monitor.observe_packet(data_packet(rate=5.0, seq=seq), now=float(seq))
    changed = []
    for seq in range(40, 50):
        sample = monitor.observe_packet(data_packet(rate=0.5, seq=seq), now=float(seq))
        changed.append(sample.significant_change)
    assert any(changed)
    assert monitor.significant_changes >= 1


def test_stable_path_flag():
    monitor = PathMonitor()
    samples = [monitor.observe_packet(data_packet(), now=float(seq)) for seq in range(20)]
    assert not samples[-1].available_rate.agile
    assert not samples[-1].energy_used.agile


def test_rtt_smoothing():
    monitor = PathMonitor()
    assert monitor.rtt_or(1.5) == 1.5
    monitor.observe_rtt(2.0)
    monitor.observe_rtt(2.0)
    assert monitor.rtt_or(1.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        monitor.observe_rtt(-1.0)
