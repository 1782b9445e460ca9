"""TDMA MAC: delivery, ARQ, hooks, energy accounting, estimators."""

import random

import pytest

from repro.experiments.scenarios import linear_scenario, random_scenario
from repro.mac.arq import ArqPolicy
from repro.mac.tdma import LinkContext, MacConfig, TdmaMac
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

    def deliver(next_hop, packet, from_node):
        macs[next_hop].receive(packet, from_node)

    for mac in macs:
        mac.deliver_to_peer = deliver
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
    assert stats.queue_drops >= 2


def test_pre_transmit_hook_can_drop():
    sim, stats, macs, received = build_pair()
    macs[0].pre_transmit_hooks.append(lambda packet, ctx: False)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert received == []
    assert stats.link_transmissions == 0


def test_pre_transmit_hook_receives_link_context():
    sim, stats, macs, received = build_pair()
    contexts = []

    def hook(packet, context):
        contexts.append(context)
        return True

    macs[0].pre_transmit_hooks.append(hook)
    macs[0].enqueue(FramePacket(), 1)
    sim.run(until=5.0)
    assert len(contexts) == 1
    assert isinstance(contexts[0], LinkContext)
    assert contexts[0].neighbor == 1
    assert contexts[0].available_rate_pps > 0


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
            node.mac.pre_transmit_hooks.append(lambda packet, context: True)

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


def test_unhooked_macs_never_build_a_link_context(monkeypatch):
    calls = []
    for owner, name in ((TdmaMac, "link_context"), (LinkStateRouting, "hops_to")):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    linear_scenario(5, "tcp", transfer_bytes=40_000.0, duration=200.0, seed=1)
    assert calls == []
    linear_scenario(5, "jtp", transfer_bytes=40_000.0, duration=200.0, seed=1)
    assert {"link_context", "hops_to"} <= set(calls)


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
        self.deliver_to_peer(next_hop, packet, self.node_id)
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
