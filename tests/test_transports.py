"""Baseline transports: TCP-SACK, ATP-like, UDP-like, JNC, and the registry."""

import pytest

from repro.core.config import JTPConfig
from repro.sim.channel import LinkQuality
from repro.sim.network import Network
from repro.transport.atp import AtpConfig, AtpProtocol
from repro.transport.jnc import JNCProtocol
from repro.transport.jtp import JTPProtocol
from repro.transport.registry import available_protocols, make_protocol
from repro.transport.tcp_sack import TcpConfig, TcpSackProtocol, padhye_throughput_pps
from repro.transport.udp import UdpConfig, UdpProtocol


def run_protocol(protocol, num_nodes=4, transfer=30_000, duration=600, seed=1, quality=None):
    network = Network.linear(num_nodes, seed=seed, link_quality=quality or LinkQuality.perfect())
    protocol.install(network)
    flow = protocol.create_flow(network, 0, num_nodes - 1, transfer)
    network.run(duration)
    return network, flow


class TestPadhyeEquation:
    def test_zero_loss_is_unbounded(self):
        assert padhye_throughput_pps(0.0, rtt=1.0, rto=2.0) == float("inf")

    def test_rate_decreases_with_loss(self):
        rates = [padhye_throughput_pps(p, 1.0, 2.0) for p in (0.01, 0.05, 0.2, 0.5)]
        assert rates == sorted(rates, reverse=True)

    def test_rate_decreases_with_rtt(self):
        assert padhye_throughput_pps(0.05, 0.5, 2.0) > padhye_throughput_pps(0.05, 2.0, 2.0)

    def test_invalid_rtt(self):
        with pytest.raises(ValueError):
            padhye_throughput_pps(0.1, 0.0, 1.0)


class TestTcpSack:
    def test_transfer_completes_on_clean_path(self):
        network, flow = run_protocol(TcpSackProtocol())
        assert flow.completed
        assert flow.delivered_fraction == pytest.approx(1.0)

    def test_transfer_completes_on_lossy_path(self):
        quality = LinkQuality(good_loss=0.1, bad_loss=0.5, bad_fraction=0.1)
        network, flow = run_protocol(TcpSackProtocol(), duration=900, quality=quality)
        assert flow.delivered_fraction == pytest.approx(1.0, abs=0.05)

    def test_delayed_acks_reduce_ack_count(self):
        network, flow = run_protocol(TcpSackProtocol())
        data_packets = flow.stats.data_packets_delivered
        # One ACK per two data packets (plus delayed-ACK timeouts).
        assert flow.stats.acks_sent <= data_packets * 0.75 + 5

    def test_sender_rate_bounded(self):
        config = TcpConfig(max_rate_pps=4.0)
        network, flow = run_protocol(TcpSackProtocol(config))
        assert flow.sender._rate_pps <= 4.0

    def test_rto_has_floor(self):
        config = TcpConfig(min_rto=1.0)
        network, flow = run_protocol(TcpSackProtocol(config))
        assert flow.sender.rto >= 1.0

    def test_lossy_run_is_bit_identical_across_repeats(self):
        # Pins the sorted() discharge of newly-ACKed sequences in
        # tcp_sack.on_packet: under loss (SACK blocks in play) the same
        # seed must reproduce exactly the same sender state and stats.
        quality = LinkQuality(good_loss=0.1, bad_loss=0.5, bad_fraction=0.1)

        def signature():
            network, flow = run_protocol(TcpSackProtocol(), duration=900, quality=quality)
            sender = flow.sender
            return (
                flow.delivered_fraction,
                sender._rate_pps,
                sender.rto,
                sender.loss_events,
                flow.stats.acks_sent,
                flow.stats.data_packets_delivered,
            )

        assert signature() == signature()


class TestAtp:
    def test_transfer_completes(self):
        network, flow = run_protocol(AtpProtocol())
        assert flow.completed

    def test_rate_stampers_installed_once(self):
        protocol = AtpProtocol()
        network = Network.linear(3, seed=1)
        protocol.install(network)
        protocol.install(network)
        assert len(network.nodes[0].mac.pre_transmit_hooks) == 1

    def test_sender_follows_explicit_rate_feedback(self):
        network, flow = run_protocol(AtpProtocol(), transfer=60_000)
        # After feedback the sender must not still sit at its initial rate.
        assert flow.sender._rate_pps != AtpConfig().initial_rate_pps

    def test_receiver_stops_acking_after_completion(self):
        network, flow = run_protocol(AtpProtocol(), transfer=20_000, duration=900)
        acks = flow.stats.acks_sent
        # Constant-rate feedback for the whole 900 s would be ~300 ACKs.
        assert acks < 100

    def test_feedback_period_respected(self):
        config = AtpConfig(feedback_period=5.0)
        network, flow = run_protocol(AtpProtocol(config), transfer=60_000, duration=300)
        assert flow.stats.acks_sent <= 300 / 5.0 + 3


class TestUdp:
    def test_constant_rate_and_no_acks(self):
        network, flow = run_protocol(UdpProtocol(UdpConfig(rate_pps=2.0)), transfer=16_000, duration=60)
        assert flow.stats.acks_sent == 0
        assert flow.completed

    def test_unreliable_under_loss(self):
        quality = LinkQuality(good_loss=0.65, bad_loss=0.65, bad_fraction=0.0)
        network, flow = run_protocol(UdpProtocol(), num_nodes=6, transfer=40_000,
                                     duration=400, quality=quality)
        assert flow.stats.source_retransmissions == 0
        assert flow.delivered_fraction < 1.0


class TestJncAndRegistry:
    def test_jnc_disables_caching(self):
        protocol = JNCProtocol()
        assert not protocol.config.caching_enabled
        protocol = JNCProtocol(JTPConfig())
        assert not protocol.config.caching_enabled

    def test_jnc_never_uses_cache_recoveries(self):
        quality = LinkQuality(good_loss=0.4, bad_loss=0.4, bad_fraction=0.0)
        network, flow = run_protocol(JNCProtocol(), num_nodes=5, duration=900, quality=quality)
        assert flow.stats.cache_recoveries == 0
        assert flow.delivered_fraction == pytest.approx(1.0)

    def test_registry_names(self):
        assert set(available_protocols()) >= {"jtp", "jnc", "tcp", "atp", "udp"}

    def test_registry_builds_each_protocol(self):
        assert isinstance(make_protocol("jtp"), JTPProtocol)
        assert isinstance(make_protocol("jnc"), JNCProtocol)
        assert isinstance(make_protocol("tcp"), TcpSackProtocol)
        assert isinstance(make_protocol("atp"), AtpProtocol)
        assert isinstance(make_protocol("udp"), UdpProtocol)

    def test_registry_tolerance_shorthand(self):
        jtp10 = make_protocol("jtp10")
        assert isinstance(jtp10, JTPProtocol)
        assert jtp10.config.loss_tolerance == pytest.approx(0.10)
        jnc20 = make_protocol("jnc20")
        assert isinstance(jnc20, JNCProtocol)
        assert jnc20.config.loss_tolerance == pytest.approx(0.20)

    def test_registry_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_protocol("quic")

    def test_registry_passes_configs_through(self):
        config = JTPConfig(cache_size=7)
        assert make_protocol("jtp", config).config.cache_size == 7
        tcp = make_protocol("tcp", TcpConfig(min_rto=2.5))
        assert tcp.config.min_rto == 2.5

    def test_flow_handle_reports_protocol_name(self):
        network, flow = run_protocol(make_protocol("jtp"))
        assert flow.protocol == "jtp"
        assert flow.completed
