"""iJTP hop-by-hop module (Algorithms 1 and 2)."""

import random
from types import SimpleNamespace

import pytest

from repro.core.config import JTPConfig
from repro.core.ijtp import IntermediateJTP, install_ijtp_everywhere
from repro.core.packet import AckInfo, Packet, PacketType
from repro.mac.tdma import TdmaMac
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.stats import FlowStats, NetworkStats
from repro.sim.topology import linear_positions


def make_module(config=None, with_send=True):
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(3, 40), radio_range=50.0, rng=random.Random(0),
                      default_quality=LinkQuality.perfect())
    mac = TdmaMac(1, sim, channel, stats)
    sent = []
    module = IntermediateJTP(
        1, mac, config=config or JTPConfig(), stats=stats,
        send_fn=(lambda packet: sent.append(packet) or True) if with_send else None,
    )
    return module, sent, stats


def data_packet(seq=0, loss_tolerance=0.0, energy_budget=1.0, energy_used=0.0, dst=2):
    return Packet(flow_id=0, seq=seq, packet_type=PacketType.DATA, src=0, dst=dst,
                  payload_bytes=800.0, loss_tolerance=loss_tolerance,
                  energy_budget=energy_budget, energy_used=energy_used)


def ack_packet(snack=(), recovered=(), cumulative=-1):
    return Packet(flow_id=0, seq=0, packet_type=PacketType.ACK, src=2, dst=0,
                  header_bytes=228.0,
                  ack=AckInfo(cumulative_ack=cumulative, snack=tuple(snack),
                              locally_recovered=tuple(recovered)))


class StubLink:
    """The link state a PreXmit hook reads, as a stand-in for its MAC."""

    def __init__(self, loss, available, attempts, hops, now):
        self.sim = SimpleNamespace(now=now)
        self.loss_rate = loss
        self.average_attempts = attempts
        self._available = available
        self.remaining_hops_fn = lambda packet: hops

    def link_estimator(self, neighbor):
        assert neighbor == 2
        return self

    def available_rate_pps(self, neighbor):
        assert neighbor == 2
        return self._available


def context(loss=0.2, available=4.0, attempts=1.2, hops=2, now=0.0):
    """``(mac, next_hop)`` arguments of a PreXmit call over a link to node 2."""
    return StubLink(loss, available, attempts, hops, now), 2


class TestPreTransmit:
    def test_non_jtp_packets_pass_through(self):
        module, _, _ = make_module()
        assert module.pre_transmit(object(), *context())

    def test_energy_budget_enforced(self):
        module, _, stats = make_module()
        stats.register_flow(FlowStats(0, 0, 2))
        packet = data_packet(energy_budget=0.01, energy_used=0.02)
        assert not module.pre_transmit(packet, *context())
        assert module.energy_budget_drops == 1
        assert stats.flows[0].energy_budget_drops == 1

    def test_within_budget_passes(self):
        module, _, _ = make_module()
        assert module.pre_transmit(data_packet(energy_budget=1.0, energy_used=0.5), *context())

    def test_attempt_bound_installed_from_loss_and_tolerance(self):
        module, _, _ = make_module()
        packet = data_packet(loss_tolerance=0.0)
        module.pre_transmit(packet, *context(loss=0.5, hops=3))
        assert packet.max_link_attempts == JTPConfig().max_attempts
        relaxed = data_packet(loss_tolerance=0.4)
        module.pre_transmit(relaxed, *context(loss=0.5, hops=3))
        assert relaxed.max_link_attempts < JTPConfig().max_attempts

    def test_loss_tolerance_field_updated_for_downstream(self):
        module, _, _ = make_module()
        packet = data_packet(loss_tolerance=0.3)
        before = packet.loss_tolerance
        module.pre_transmit(packet, *context(loss=0.2, hops=4))
        assert packet.loss_tolerance != before
        assert 0.0 <= packet.loss_tolerance <= 1.0

    def test_available_rate_stamped_with_minimum(self):
        module, _, _ = make_module()
        packet = data_packet()
        module.pre_transmit(packet, *context(available=4.0, attempts=2.0))
        assert packet.available_rate_pps == pytest.approx(2.0)
        # A later hop with more capacity must not raise the stamp.
        module.pre_transmit(packet, *context(available=10.0, attempts=1.0))
        assert packet.available_rate_pps == pytest.approx(2.0)

    def test_ack_packets_not_stamped_but_budget_checked(self):
        module, _, _ = make_module()
        ack = ack_packet()
        ack.energy_budget = 0.5
        ack.energy_used = 0.0
        assert module.pre_transmit(ack, *context())
        assert ack.available_rate_pps == float("inf")

    def test_missing_remaining_hops_defaults_to_one(self):
        module, _, _ = make_module()
        packet = data_packet(loss_tolerance=0.2)
        mac, next_hop = context(loss=0.3, available=3.0, attempts=1.0, hops=None)
        assert module.pre_transmit(packet, mac, next_hop)
        assert packet.max_link_attempts >= 1


class TestPostReceive:
    def test_data_packets_cached_at_transit_nodes(self):
        module, _, _ = make_module()
        module.post_receive(data_packet(seq=5, dst=2), module.mac)
        assert (0, 5) in module.cache

    def test_destination_does_not_cache(self):
        module, _, _ = make_module()
        module.post_receive(data_packet(seq=5, dst=1), module.mac)
        assert len(module.cache) == 0

    def test_caching_disabled_by_config(self):
        module, _, _ = make_module(config=JTPConfig(caching_enabled=False))
        assert module.cache is None
        assert module.post_receive(data_packet(seq=1), module.mac)

    def test_snack_served_from_cache_and_ack_annotated(self):
        module, sent, stats = make_module()
        stats.register_flow(FlowStats(0, 0, 2))
        module.post_receive(data_packet(seq=3), module.mac)
        ack = ack_packet(snack=(3, 4))
        module.post_receive(ack, module.mac)
        assert len(sent) == 1
        assert sent[0].seq == 3
        assert sent[0].is_retransmission
        assert 3 in ack.ack.locally_recovered
        assert 4 not in ack.ack.locally_recovered
        assert stats.flows[0].cache_recoveries == 1

    def test_already_recovered_entries_not_served_again(self):
        module, sent, _ = make_module()
        module.post_receive(data_packet(seq=3), module.mac)
        ack = ack_packet(snack=(3,), recovered=(3,))
        module.post_receive(ack, module.mac)
        assert sent == []

    def test_recovery_holdoff_prevents_duplicates(self):
        module, sent, _ = make_module()
        module.post_receive(data_packet(seq=3), module.mac)
        module.post_receive(ack_packet(snack=(3,)), module.mac)
        second_ack = ack_packet(snack=(3,))
        module.post_receive(second_ack, module.mac)
        assert len(sent) == 1
        # The second ACK is still annotated so upstream nodes stay quiet.
        assert 3 in second_ack.ack.locally_recovered

    def test_cumulative_ack_evicts_delivered_packets(self):
        module, _, _ = make_module()
        for seq in range(5):
            module.post_receive(data_packet(seq=seq), module.mac)
        module.post_receive(ack_packet(cumulative=2), module.mac)
        assert (0, 2) not in module.cache
        assert (0, 3) in module.cache


class TestInstallation:
    def test_install_registers_hooks_once(self):
        module, _, _ = make_module()
        module.install()
        module.install()
        assert module.mac.pre_transmit_hooks.count(module.pre_transmit) == 1
        assert module.mac.post_receive_hooks.count(module.post_receive) == 1

    def test_install_everywhere(self):
        network = Network.linear(4, seed=0, link_quality=LinkQuality.perfect())
        modules = install_ijtp_everywhere(network)
        assert len(modules) == 4
        for node, module in zip(network.nodes, modules, strict=True):
            assert module.pre_transmit in node.mac.pre_transmit_hooks
