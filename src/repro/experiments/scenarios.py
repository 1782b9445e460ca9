"""Scenario builders for the paper's evaluation setups (Section 6.1).

Four scenario families cover every figure and table:

* **linear** — source and destination at the two ends of a chain whose
  links alternate between a good and a bad state (Gilbert–Elliott, 10%
  bad time, 3 s mean bad duration); used by Figures 3, 4, 5, 6, 7, 8, 9;
* **random** — nodes placed uniformly at random in a field sized to keep
  the network connected, several simultaneous flows between random
  pairs; Figure 10;
* **mobile** — the random scenario plus random-waypoint mobility at
  0.1 / 1 / 5 m/s with 47 m legs and 100 s pauses; Figure 11;
* **testbed** — a 14-node network with stable, low-loss indoor-style
  links and Poisson flow arrivals (mean inter-arrival 400 s, mean
  transfer 100 KB), standing in for the paper's Linux/JAVeLEN
  deployment; Table 2.

Figures 3(c), 5, 7 and 8 read live simulator state (trace events,
per-flow reception series), so each has a trace scenario on the linear
chain — **attempt_bound**, **backoff**, **feedback_rate** and
**rate_adaptation** — that returns the figure's tidy rows on
:attr:`ScenarioResult.rows` next to the run's metrics.  A trace
scenario asks its network for exactly the trace kinds it reads.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional

from repro.core.config import FeedbackMode, JTPConfig
from repro.experiments.metrics import ScenarioMetrics, collect_metrics
from repro.mac.tdma import MacConfig
from repro.sim.channel import LinkQuality
from repro.sim.faults import FaultPlan
from repro.sim.mobility import RandomWaypointMobility
from repro.sim.network import Network
from repro.sim.random import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.transport.base import FlowHandle, TransportProtocol
from repro.transport.registry import make_protocol
from repro.transport.udp import UdpConfig, UdpProtocol
from repro.util.validation import require_positive

#: Link quality used in the simulation experiments: each link spends
#: roughly 10% of the time in a bad state whose mean duration is 3 s.
PAPER_LINK_QUALITY = LinkQuality(good_loss=0.05, bad_loss=0.6, bad_fraction=0.1, mean_bad_duration=3.0)

#: Link quality used for the testbed-like scenario of Table 2: the paper
#: notes the indoor links "are more stable and their quality is much
#: better" than the simulated ones.
STABLE_LINK_QUALITY = LinkQuality.stable(loss=0.02)

#: A uniformly lossy quality used by the caching studies (Figures 4-6).
#: With a per-attempt loss around 50% the residual loss after the MAC's
#: five bounded attempts is a few percent per hop, which is the regime
#: where the analytic model of Section 4.1 (Eqs. 5-6) predicts a clearly
#: visible gap between in-network and end-to-end recovery even at the
#: small transfer sizes the benchmarks use.
LOSSY_LINK_QUALITY = LinkQuality(good_loss=0.5, bad_loss=0.5, bad_fraction=0.0)

Row = Dict[str, object]


@dataclass
class ScenarioResult:
    """A finished scenario run: the network, its flows and the metrics."""

    network: Network
    protocol: TransportProtocol
    flows: List[FlowHandle]
    duration: float
    metrics: ScenarioMetrics
    #: The figure's tidy rows, read from live simulator state (the
    #: single-run trace scenarios only).
    rows: List[Row] = field(default_factory=list)


def _resolve_protocol(protocol, jtp_config: Optional[JTPConfig]) -> TransportProtocol:
    if isinstance(protocol, TransportProtocol):
        return protocol
    return make_protocol(str(protocol), jtp_config)


def _finish(network: Network, protocol: TransportProtocol, flows: List[FlowHandle], duration: float) -> ScenarioResult:
    network.run(duration)
    metrics = collect_metrics(network, flows, duration, protocol.name)
    return ScenarioResult(network=network, protocol=protocol, flows=flows, duration=duration, metrics=metrics)


def linear_scenario(
    num_nodes: int,
    protocol="jtp",
    transfer_bytes: float = 200_000.0,
    num_flows: int = 2,
    duration: float = 1200.0,
    seed: int = 0,
    link_quality: Optional[LinkQuality] = None,
    mac_config: Optional[MacConfig] = None,
    jtp_config: Optional[JTPConfig] = None,
    flow_start_spacing: float = 5.0,
    trace_kinds: AbstractSet[str] = frozenset(),
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one static linear-topology experiment.

    Both flows run from one end of the chain to the other, matching the
    paper's "source and destination of two competing flows are placed at
    the two ends of the network".  ``trace_kinds`` names the trace event
    kinds recorded on ``result.network.trace`` (none by default).
    """
    require_positive(num_nodes, "num_nodes")
    if num_nodes < 2:
        raise ValueError("a linear scenario needs at least two nodes")
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.linear(
        num_nodes,
        seed=seed,
        link_quality=link_quality or PAPER_LINK_QUALITY,
        mac_config=mac_config or MacConfig(),
        trace_kinds=trace_kinds,
    )
    proto.install(network)
    flows = [
        proto.create_flow(network, 0, num_nodes - 1, transfer_bytes, start_time=i * flow_start_spacing)
        for i in range(num_flows)
    ]
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def random_scenario(
    num_nodes: int,
    protocol="jtp",
    num_flows: int = 5,
    transfer_bytes: float = 100_000.0,
    duration: float = 1500.0,
    seed: int = 0,
    link_quality: Optional[LinkQuality] = None,
    jtp_config: Optional[JTPConfig] = None,
    radio_range: float = 50.0,
    trace_kinds: AbstractSet[str] = frozenset(),
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one static random-topology experiment (Figure 10).

    Source/destination pairs are chosen uniformly at random but
    deterministically from the seed, so different protocols evaluated
    with the same seed see exactly the same topology and the same flows
    — the paper's "same conditions in the same run" methodology.
    """
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.random(
        num_nodes,
        radio_range=radio_range,
        seed=seed,
        link_quality=link_quality or PAPER_LINK_QUALITY,
        trace_kinds=trace_kinds,
    )
    proto.install(network)
    flows = _random_flows(network, proto, num_flows, transfer_bytes, seed)
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def mobile_scenario(
    num_nodes: int = 15,
    protocol="jtp",
    speed: float = 1.0,
    num_flows: int = 5,
    transfer_bytes: float = 100_000.0,
    duration: float = 1500.0,
    seed: int = 0,
    jtp_config: Optional[JTPConfig] = None,
    radio_range: float = 50.0,
    trace_kinds: AbstractSet[str] = frozenset(),
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one mobile random-topology experiment (Figure 11).

    Nodes follow the random-waypoint model: 47 m average legs at the
    given speed with 100 s average pauses, as in the paper.
    """
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.random(
        num_nodes,
        radio_range=radio_range,
        seed=seed,
        link_quality=PAPER_LINK_QUALITY,
        trace_kinds=trace_kinds,
    )
    field_size = getattr(network, "field_size", 200.0)
    mobility = RandomWaypointMobility(
        network.channel,
        rng=network.streams.stream("mobility"),
        speed=speed,
        mean_leg_distance=47.0,
        mean_pause=100.0,
        field_size=field_size,
    )
    network.attach_mobility(mobility)
    proto.install(network)
    flows = _random_flows(network, proto, num_flows, transfer_bytes, seed)
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def testbed_scenario(
    protocol="jtp",
    num_nodes: int = 14,
    duration: float = 1800.0,
    mean_interarrival: float = 400.0,
    mean_transfer_bytes: float = 100_000.0,
    seed: int = 0,
    jtp_config: Optional[JTPConfig] = None,
    trace_kinds: AbstractSet[str] = frozenset(),
    fault_plan: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run one testbed-like experiment (Table 2).

    Fourteen nodes with stable, low-loss links; every node generates
    transfers to random destinations with exponentially distributed
    inter-arrival times (mean 400 s) and exponentially distributed sizes
    (mean 100 KB), mirroring the workload of the paper's 30-minute
    Linux/JAVeLEN runs.
    """
    proto = _resolve_protocol(protocol, jtp_config)
    network = Network.random(
        num_nodes,
        seed=seed,
        link_quality=STABLE_LINK_QUALITY,
        trace_kinds=trace_kinds,
    )
    proto.install(network)
    workload_rng = RandomStreams(seed).stream("testbed-workload")
    flows: List[FlowHandle] = []
    for src in range(num_nodes):
        arrival = workload_rng.expovariate(1.0 / mean_interarrival)
        while arrival < duration * 0.8:
            dst = workload_rng.randrange(num_nodes - 1)
            if dst >= src:
                dst += 1
            size = max(8_000.0, workload_rng.expovariate(1.0 / mean_transfer_bytes))
            flows.append(proto.create_flow(network, src, dst, size, start_time=arrival))
            arrival += workload_rng.expovariate(1.0 / mean_interarrival)
    if fault_plan is not None:
        network.install_fault_plan(fault_plan)
    return _finish(network, proto, flows, duration)


def _random_flows(
    network: Network,
    proto: TransportProtocol,
    num_flows: int,
    transfer_bytes: float,
    seed: int,
) -> List[FlowHandle]:
    """Pick ``num_flows`` random (src, dst) pairs, deterministically from the seed."""
    rng = RandomStreams(seed).stream("flow-endpoints")
    flows: List[FlowHandle] = []
    for index in range(num_flows):
        src = rng.randrange(network.num_nodes)
        dst = rng.randrange(network.num_nodes - 1)
        if dst >= src:
            dst += 1
        flows.append(proto.create_flow(network, src, dst, transfer_bytes, start_time=5.0 * index))
    return flows


def attempt_bound_scenario(
    num_nodes: int,
    loss_tolerance: float,
    transfer_bytes: float,
    duration: float,
    seed: int = 0,
) -> ScenarioResult:
    """Figure 3(c)'s cell: iJTP's attempt bound over time at node index 2.

    Rows: ``protocol`` (the ``jtpNN`` reliability label), ``time``,
    ``attempts``.
    """
    label = f"jtp{int(round(loss_tolerance * 100))}"
    result = linear_scenario(
        num_nodes,
        protocol=label,
        jtp_config=JTPConfig(loss_tolerance=loss_tolerance),
        transfer_bytes=transfer_bytes,
        num_flows=1,
        duration=duration,
        seed=seed,
        trace_kinds={"ijtp_attempts"},
    )
    events = result.network.trace.events("ijtp_attempts", node=2)
    result.rows = [{"protocol": label, "time": event.time, "attempts": int(event["attempts"])} for event in events]
    return result


def backoff_scenario(
    num_nodes: int,
    backoff_enabled: bool,
    duration: float,
    transfer_bytes: float,
    short_window: float,
    long_window: float,
    seed: int = 0,
) -> ScenarioResult:
    """Figure 5's cell: a UDP-like flow against a reliable JTP flow.

    Flow 1 is the UDP-like flow (no retransmission requests); flow 2 is
    a fully reliable JTP flow that exercises the in-network caches.
    Rows: ``variant`` (``with_backoff``/``without_backoff``), ``series``
    (each flow's short- and long-window reception rate), ``time``,
    ``rate_pps``.
    """
    jtp_config = JTPConfig(backoff_enabled=backoff_enabled)
    jtp = make_protocol("jtp", jtp_config)
    udp = UdpProtocol(UdpConfig(rate_pps=2.0))
    base = linear_scenario(
        num_nodes,
        protocol=jtp,
        transfer_bytes=transfer_bytes,
        num_flows=1,
        duration=1.0,  # _finish runs the rest once both flows exist
        seed=seed,
        jtp_config=jtp_config,
        link_quality=LOSSY_LINK_QUALITY,
    )
    udp_flow = udp.create_flow(base.network, 0, num_nodes - 1, transfer_bytes, start_time=0.0)
    jtp_flow = base.flows[0]
    result = _finish(base.network, jtp, [jtp_flow, udp_flow], duration)
    end = result.network.sim.now
    series = {
        "flow1_short": udp_flow.stats.reception_rate_series(short_window, short_window / 2, end),
        "flow1_long": udp_flow.stats.reception_rate_series(long_window, long_window / 2, end),
        "flow2_short": jtp_flow.stats.reception_rate_series(short_window, short_window / 2, end),
        "flow2_long": jtp_flow.stats.reception_rate_series(long_window, long_window / 2, end),
    }
    variant = "with_backoff" if backoff_enabled else "without_backoff"
    result.rows = [
        {"variant": variant, "series": name, "time": time, "rate_pps": rate}
        for name, points in series.items()
        for time, rate in points
    ]
    return result


def feedback_rate_scenario(
    num_nodes: int,
    feedback_rate: Optional[float],
    duration: float,
    long_transfer_bytes: float,
    short_transfer_bytes: float,
    num_short_flows: int,
    seed: int = 0,
) -> ScenarioResult:
    """Figure 7's cell: a long-lived flow and short-lived ones at one feedback setting.

    ``feedback_rate`` is a constant feedback rate in pkt/s, or ``None``
    for variable-rate feedback.  One row: ``feedback``,
    ``feedback_rate_pps``, ``energy_mJ``, ``queue_drops``, ``acks``,
    ``delivered_fraction``.
    """
    if feedback_rate is None:
        label, config = "variable", JTPConfig(feedback_mode=FeedbackMode.VARIABLE)
    else:
        label = f"constant_{feedback_rate:g}"
        config = JTPConfig(feedback_mode=FeedbackMode.CONSTANT, constant_feedback_period=1.0 / feedback_rate)
    protocol = make_protocol("jtp", config)
    base = linear_scenario(
        num_nodes,
        protocol=protocol,
        jtp_config=config,
        transfer_bytes=long_transfer_bytes,
        num_flows=1,
        duration=1.0,
        seed=seed,
    )
    flows = list(base.flows)
    for index in range(num_short_flows):
        start = 100.0 + index * (duration / (num_short_flows + 1))
        flows.append(protocol.create_flow(base.network, 1, num_nodes - 2, short_transfer_bytes, start_time=start))
    result = _finish(base.network, protocol, flows, duration)
    result.rows = [{
        "feedback": label,
        "feedback_rate_pps": None if feedback_rate is None else 1.0 / config.constant_feedback_period,
        "energy_mJ": result.metrics.energy_joules * 1e3,
        "queue_drops": result.metrics.queue_drops,
        "acks": result.metrics.acks_sent,
        "delivered_fraction": statistics.fmean(f.delivered_fraction for f in flows),
    }]
    return result


def rate_adaptation_scenario(
    num_nodes: int,
    duration: float,
    flow2_start: float,
    flow2_duration: float,
    window: float,
    seed: int = 0,
) -> ScenarioResult:
    """Figure 8's cell: two competing JTP flows, one long- and one short-lived.

    Rows: ``series``, ``time``, ``value``.  The series are both flows'
    reception rates and flow 1's path-monitor readings (reported
    available rate, filtered mean, and the ``flow1_lcl``/``flow1_ucl``
    control limits); flow 2's activity interval is one
    ``flow2_interval`` row whose ``time`` is its start and ``value`` its
    end.
    """
    protocol = make_protocol("jtp")
    base = linear_scenario(
        num_nodes,
        protocol=protocol,
        transfer_bytes=2_000_000.0,
        num_flows=1,
        duration=1.0,
        seed=seed,
        trace_kinds={"jtp_receive"},
    )
    flow1 = base.flows[0]
    flow2_bytes = 800.0 * 3.0 * flow2_duration  # roughly 3 pkt/s for its lifetime
    flow2 = protocol.create_flow(base.network, 0, num_nodes - 1, flow2_bytes, start_time=flow2_start)
    # The figure reads only flow 1's monitor, so flow 2's receiver gets a
    # recorder of its own that records nothing.
    flow2.receiver.trace = TraceRecorder()  # type: ignore[attr-defined]
    result = _finish(base.network, protocol, [flow1, flow2], duration)
    end = result.network.sim.now
    monitor = result.network.trace.events("jtp_receive", flow=flow1.flow_id)
    series = {
        "flow1_rate": flow1.stats.reception_rate_series(window, window / 2, end),
        "flow2_rate": flow2.stats.reception_rate_series(window, window / 2, end),
        "flow1_reported_rate": [(event.time, event["rate_stamp"]) for event in monitor],
        "flow1_monitor_mean": [(event.time, event["monitor_mean"]) for event in monitor],
    }
    rows: List[Row] = [
        {"series": name, "time": time, "value": value} for name, points in series.items() for time, value in points
    ]
    for event in monitor:
        rows.append({"series": "flow1_lcl", "time": event.time, "value": event["monitor_lcl"]})
        rows.append({"series": "flow1_ucl", "time": event.time, "value": event["monitor_ucl"]})
    rows.append({"series": "flow2_interval", "time": flow2_start, "value": flow2_start + flow2_duration})
    result.rows = rows
    return result
