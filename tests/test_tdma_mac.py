"""TDMA MAC: delivery, ARQ, hooks, energy accounting, estimators."""

import random

import pytest

from repro.core.ijtp import IntermediateJTP
from repro.core.packet import AckInfo, Packet, PacketType
from repro.experiments.scenarios import linear_scenario, random_scenario
from repro.mac.arq import ArqPolicy
from repro.mac.tdma import MacConfig, TdmaMac
from repro.routing.link_state import LinkStateRouting
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.stats import NetworkStats
from repro.sim.topology import linear_positions
from repro.transport.registry import make_protocol


class FramePacket:
    """Minimal duck-typed packet for MAC-level tests."""

    def __init__(self, flow_id=0, size_bits=6624.0, max_link_attempts=None):
        self.flow_id = flow_id
        self.size_bits = size_bits
        self.max_link_attempts = max_link_attempts
        self.energy_used = 0.0
        self.dst = 1
        self.src = 0


def build_pair(quality=None, mac_config=None, mac_class=TdmaMac):
    """Two nodes in range of each other, fully wired MACs."""
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(2, 40), radio_range=50.0, rng=random.Random(0),
                      default_quality=quality or LinkQuality.perfect())
    config = mac_config or MacConfig()
    macs = [mac_class(i, sim, channel, stats, config=config) for i in range(2)]
    received = []
    for mac in macs:
        mac.peers = macs
        mac.deliver_upstream = lambda packet, frm, _m=mac: received.append((_m.node_id, packet))
    return sim, stats, macs, received


def test_packet_delivered_over_perfect_link():
    sim, stats, macs, received = build_pair()
    packet = FramePacket()
    assert macs[0].enqueue(packet, 1)
    sim.run(until=5.0)
    assert len(received) == 1
    assert received[0][0] == 1
    assert stats.link_transmissions == 1


def test_energy_charged_to_both_ends():
    sim, stats, macs, received = build_pair()
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    radio = macs[0].config.energy
    assert stats.energy[0].tx_joules == pytest.approx(radio.transmit_energy(6624.0))
    assert stats.energy[1].rx_joules == pytest.approx(radio.receive_energy(6624.0))


def test_packet_energy_used_accumulates():
    sim, stats, macs, received = build_pair()
    packet = FramePacket()
    macs[0].enqueue(packet, 1)
    sim.run(until=5.0)
    assert packet.energy_used > 0


def test_packet_without_an_energy_field_is_sent_and_a_read_only_one_raises():
    class Unmetered:
        flow_id = 0
        size_bits = 6624.0
        max_link_attempts = None
        dst = 1

    class ReadOnly(Unmetered):
        energy_used = property(lambda self: 0.0)

    sim, stats, macs, received = build_pair()
    macs[0].enqueue(Unmetered(), 1)
    sim.run(until=5.0)
    assert len(received) == 1
    macs[0].enqueue(ReadOnly(), 1)
    with pytest.raises(AttributeError):
        sim.run(until=10.0)


def test_retries_until_attempt_bound():
    quality = LinkQuality(good_loss=1.0, bad_loss=1.0, bad_fraction=0.0)
    sim, stats, macs, received = build_pair(quality=quality)
    drops = []
    macs[0].on_packet_dropped = lambda packet, reason: drops.append(reason)
    macs[0].enqueue(FramePacket(max_link_attempts=3), 1)
    sim.run(until=10.0)
    assert received == []
    assert stats.link_transmissions == 3
    assert drops == ["link_exhausted"]


def test_default_attempts_when_unspecified():
    quality = LinkQuality(good_loss=1.0, bad_loss=1.0, bad_fraction=0.0)
    config = MacConfig(arq=ArqPolicy(default_attempts=2, max_attempts=5))
    sim, stats, macs, received = build_pair(quality=quality, mac_config=config)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=10.0)
    assert stats.link_transmissions == 2


def test_queue_overflow_drops_and_counts():
    config = MacConfig(queue_capacity=2)
    sim, stats, macs, received = build_pair(mac_config=config)
    outcomes = [macs[0].enqueue(FramePacket(), 1) for _ in range(5)]
    assert outcomes.count(False) >= 2
    assert macs[0].queue_drops >= 2


def test_pre_transmit_hook_can_drop():
    sim, stats, macs, received = build_pair()
    macs[0].pre_transmit_hooks.append(lambda packet, mac, next_hop: False)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert received == []
    assert stats.link_transmissions == 0


def test_pre_transmit_hook_receives_the_mac_and_next_hop():
    sim, stats, macs, received = build_pair()
    calls = []

    def hook(packet, mac, next_hop):
        calls.append((packet, mac, next_hop, mac.available_rate_pps(next_hop)))
        return True

    macs[0].pre_transmit_hooks.append(hook)
    packet = FramePacket()
    macs[0].enqueue(packet, 1)
    sim.run(until=5.0)
    assert len(calls) == 1
    assert calls[0][:3] == (packet, macs[0], 1)
    assert calls[0][3] > 0


def test_post_receive_hook_can_consume():
    sim, stats, macs, received = build_pair()
    macs[1].post_receive_hooks.append(lambda packet, mac: False)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert received == []


def test_packets_serialised_one_at_a_time():
    sim, stats, macs, received = build_pair()
    for _ in range(3):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=0.01)
    # Far too little time for three service periods; at most one delivery so far.
    assert len(received) <= 1
    sim.run(until=10.0)
    assert len(received) == 3


def test_available_rate_decreases_under_load():
    sim, stats, macs, received = build_pair()
    idle_rate = macs[0].available_rate_pps(1)
    for _ in range(20):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=3.0)
    loaded_rate = macs[0].available_rate_pps(1)
    assert loaded_rate < idle_rate


def test_available_rate_has_floor():
    config = MacConfig(min_available_rate_pps=0.25)
    sim, stats, macs, received = build_pair(mac_config=config)
    for _ in range(40):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=2.0)
    assert macs[0].available_rate_pps(1) >= 0.25


def test_link_estimator_learns_loss():
    quality = LinkQuality(good_loss=0.5, bad_loss=0.5, bad_fraction=0.0)
    sim, stats, macs, received = build_pair(quality=quality)
    for _ in range(40):
        macs[0].enqueue(FramePacket(), 1)
    sim.run(until=200.0)
    assert 0.25 <= macs[0].link_estimator(1).loss_rate <= 0.75


def test_nominal_rate_positive_and_finite():
    config = MacConfig()
    assert 0 < config.nominal_rate_pps < 1000


def test_packet_without_size_bits_rejected():
    sim, stats, macs, received = build_pair()

    class Bad:
        flow_id = 0
        dst = 1

    macs[0].enqueue(Bad(), 1)
    with pytest.raises(AttributeError):
        sim.run(until=1.0)


def test_unsized_packet_rejected_after_the_cost_cache_is_warm():
    sim, stats, macs, received = build_pair()
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert len(received) == 1
    macs[0].enqueue(FramePacket(size_bits=None), 1)
    with pytest.raises(AttributeError):
        sim.run(until=10.0)


def test_unwired_mac_raises_on_delivery():
    sim = Simulator()
    stats = NetworkStats()
    channel = Channel(linear_positions(2, 40), radio_range=50.0, rng=random.Random(0),
                      default_quality=LinkQuality.perfect())
    mac = TdmaMac(0, sim, channel, stats)
    with pytest.raises(RuntimeError):
        mac.receive(FramePacket(), 1)


def test_describe_mentions_node():
    sim, stats, macs, received = build_pair()
    assert "node=0" in macs[0].describe()


# -- the no-hook fast path and the fused delivery event -------------------------------------------


def _with_noop_hook(name):
    """Protocol ``name`` with an always-True pre-transmit hook on every MAC."""
    protocol = make_protocol(name, None)
    install = protocol.install

    def install_hooked(network):
        install(network)
        for node in network.nodes:
            node.mac.pre_transmit_hooks.append(lambda packet, mac, next_hop: True)

    protocol.install = install_hooked
    return protocol


@pytest.mark.parametrize(
    "scenario",
    [
        lambda protocol: linear_scenario(5, protocol, transfer_bytes=60_000.0, duration=300.0, seed=3),
        lambda protocol: random_scenario(
            8, protocol, num_flows=2, transfer_bytes=40_000.0, duration=300.0, seed=2,
            fault_plan=FaultPlan.node_churn(tuple(range(8)), 0.02, 30.0, until=240.0),
        ),
    ],
    ids=["linear", "churn"],
)
def test_skipping_the_link_context_changes_no_metric(scenario):
    plain = scenario("tcp")
    hooked = scenario(_with_noop_hook("tcp"))
    assert all(not node.mac.pre_transmit_hooks for node in plain.network.nodes)
    assert repr(hooked.metrics) == repr(plain.metrics)
    assert hooked.network.sim.events_processed == plain.network.sim.events_processed


def _count_link_state_reads(monkeypatch):
    """Record the name of every call that reads link state PreXmit uses."""
    calls = []
    for owner, name in ((TdmaMac, "available_rate_pps"), (TdmaMac, "link_estimator"),
                        (LinkStateRouting, "hops_to")):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_unhooked_macs_never_read_available_rate_or_remaining_hops(monkeypatch):
    calls = _count_link_state_reads(monkeypatch)
    linear_scenario(5, "tcp", transfer_bytes=40_000.0, duration=200.0, seed=1)
    assert "available_rate_pps" not in calls
    assert "hops_to" not in calls
    linear_scenario(5, "jtp", transfer_bytes=40_000.0, duration=200.0, seed=1)
    assert {"available_rate_pps", "hops_to"} <= set(calls)


def _ijtp_pair(packet_type):
    """A wired pair with iJTP on node 0, and one JTP packet of ``packet_type`` for node 1."""
    sim, stats, macs, received = build_pair()
    IntermediateJTP(0, macs[0]).install()
    packet = Packet(flow_id=0, seq=0, packet_type=packet_type, src=0, dst=1, payload_bytes=800.0,
                    ack=AckInfo() if packet_type is PacketType.ACK else None)
    return sim, macs, packet


def test_an_ack_prexmit_reads_no_link_state(monkeypatch):
    sim, macs, packet = _ijtp_pair(PacketType.ACK)
    calls = _count_link_state_reads(monkeypatch)
    hops = []
    macs[0].remaining_hops_fn = lambda packet: hops.append(packet) or 1
    macs[0].enqueue(packet, 1)
    sim.run(until=0.001)  # the frame is in service, its first attempt made
    assert macs[0]._busy and len(macs[0].queue) == 0
    assert hops == []
    # The attempt itself creates the link's estimator, as it does for any frame.
    assert calls == ["link_estimator"]


def test_a_data_prexmit_reads_each_value_once_at_service_time(monkeypatch):
    sim, macs, packet = _ijtp_pair(PacketType.DATA)
    mac = macs[0]
    reads = []
    original_rate = TdmaMac.available_rate_pps
    original_estimator = TdmaMac.link_estimator

    def rate(self, neighbor):
        reads.append(("available_rate_pps", neighbor, self.sim.now, len(self.queue)))
        return original_rate(self, neighbor)

    def estimator(self, neighbor):
        reads.append(("link_estimator", neighbor, self.sim.now, len(self.queue)))
        return original_estimator(self, neighbor)

    monkeypatch.setattr(TdmaMac, "available_rate_pps", rate)
    monkeypatch.setattr(TdmaMac, "link_estimator", estimator)
    mac.remaining_hops_fn = lambda packet: reads.append(("hops", packet.seq, mac.sim.now, len(mac.queue))) or 2
    mac.enqueue(packet, 1)
    mac.enqueue(FramePacket(), 1)  # queued behind it: PreXmit runs with it still waiting
    sim.run(until=0.001)
    # One read of each value, all at service time: the queue already
    # popped the data frame and still holds the one behind it.
    assert sorted(reads) == [("available_rate_pps", 1, 0.0, 1), ("hops", 0, 0.0, 1), ("link_estimator", 1, 0.0, 1)]
    assert packet.max_link_attempts is not None
    assert packet.available_rate_pps < float("inf")


def test_delivery_and_next_service_run_before_callbacks_the_delivery_schedules():
    sim, stats, macs, received = build_pair()
    seen = []

    def upstream(packet, from_node):
        # A zero-delay reaction to frame 1 (a forward, an ACK) must fire
        # after the sender has already made its first attempt on frame 2.
        sim.schedule(0.0, lambda: seen.append(stats.link_transmissions))

    macs[1].deliver_upstream = upstream
    macs[0].enqueue(FramePacket(), 1)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=0.2)
    assert seen == [2]


class SplitDeliveryMac(TdmaMac):
    """Delivers and then schedules the next service as a separate event."""

    def _deliver_and_continue(self, next_hop, packet):
        self.peers[next_hop].receive(packet, self.node_id)
        self.sim.schedule(0.0, self._service_next)


def test_fused_delivery_saves_exactly_one_event_per_delivered_frame():
    quality = LinkQuality(good_loss=0.4, bad_loss=0.4, bad_fraction=0.0)
    runs = []
    for mac_class in (TdmaMac, SplitDeliveryMac):
        sim, stats, macs, received = build_pair(quality=quality, mac_class=mac_class)
        for _ in range(30):
            macs[0].enqueue(FramePacket(max_link_attempts=2), 1)
        sim.run(until=100.0)
        runs.append((sim.events_processed, stats.link_successes, stats.link_transmissions, len(received)))
    (fused_events, delivered, attempts, arrived), (split_events, *split_rest) = runs
    assert split_rest == [delivered, attempts, arrived]
    assert 0 < delivered < 30 < attempts
    assert split_events - fused_events == delivered
