"""Metric extraction from finished simulation runs.

The two headline metrics follow the paper's Section 6 definitions:

* **energy per delivered bit** — all transport-attributed radio energy
  in the system divided by the number of unique application bits
  delivered (network-maintenance energy of lower layers is never
  charged, because the substrate never charges it in the first place);
* **goodput** — per-flow delivered application bits over the flow's
  active lifetime, averaged across flows.

The remaining counters feed the per-figure experiments: per-node energy
(Fig. 4b), queue drops (Fig. 7b), source retransmissions and cache
recoveries (Figs. 6 and 11c), ACK counts and delivered fractions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.sim.network import Network
from repro.transport.base import FlowHandle
from repro.util.units import joules_to_microjoules


def jains_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n maximally unfair."""
    values = list(values)
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass
class ScenarioMetrics:
    """All metrics extracted from one simulation run."""

    protocol: str
    num_nodes: int
    num_flows: int
    duration: float

    energy_joules: float
    delivered_bytes: float
    energy_per_bit_joules: float
    goodput_bps: float
    aggregate_goodput_bps: float
    delivered_fraction: float

    source_retransmissions: int
    cache_recoveries: int
    queue_drops: int
    routing_drops: int
    link_transmissions: int
    acks_sent: int
    ack_bytes: float
    fairness: float
    per_node_energy: Dict[int, float] = field(default_factory=dict)
    per_flow_goodput: Dict[int, float] = field(default_factory=dict)

    # Resilience metrics (repro.sim.faults).  All zero in a fault-free
    # run, so rows from historical runs and fault-free cells compare
    # unchanged.
    fault_events: int = 0
    fault_outage_seconds: float = 0.0
    delivered_bytes_during_faults: float = 0.0
    post_heal_recovery_seconds: float = 0.0

    @property
    def energy_per_bit_microjoules(self) -> float:
        """Energy per delivered bit in µJ (the unit of Figures 9-11)."""
        return joules_to_microjoules(self.energy_per_bit_joules)

    @property
    def energy_per_bit_millijoules(self) -> float:
        """Energy per delivered bit in mJ (the unit of Table 2)."""
        return self.energy_per_bit_joules * 1e3

    @property
    def goodput_kbps(self) -> float:
        """Average per-flow goodput in kbit/s (the unit of Figures 9-11)."""
        return self.goodput_bps / 1e3

    @property
    def outage_delivery_ratio(self) -> float:
        """Delivery rate during outages relative to the run's overall rate.

        1.0 means faults did not dent delivery at all; 0.0 means nothing
        got through while a fault was active.  Zero outage time yields
        1.0 (there was nothing to degrade).
        """
        if self.fault_outage_seconds <= 0:
            return 1.0
        if self.delivered_bytes <= 0 or self.duration <= 0:
            return 0.0
        overall = self.delivered_bytes / self.duration
        return (self.delivered_bytes_during_faults / self.fault_outage_seconds) / overall

    def as_row(self) -> Dict[str, float]:
        """A flat dictionary suitable for the text-table reporter."""
        return {
            "protocol": self.protocol,
            "netSize": self.num_nodes,
            "flows": self.num_flows,
            "energy_J": round(self.energy_joules, 4),
            "energy_per_bit_uJ": round(self.energy_per_bit_microjoules, 3),
            "goodput_kbps": round(self.goodput_kbps, 4),
            "delivered_frac": round(self.delivered_fraction, 3),
            "source_rtx": self.source_retransmissions,
            "cache_recoveries": self.cache_recoveries,
            "queue_drops": self.queue_drops,
            "acks": self.acks_sent,
        }


def _resilience_metrics(
    network: Network, flows: Sequence[FlowHandle], end_time: float
) -> Tuple[int, float, float, float]:
    """(fault events, outage seconds, bytes delivered during outages, mean
    post-heal recovery time) — all zero without an installed fault plan.

    Recovery time is, per instant at which the network returned to a
    fault-free state, the wait until the *next* delivery anywhere in the
    system (capped at end of run), averaged over those heal instants.
    """
    injector = network.fault_injector
    if injector is None:
        return 0, 0.0, 0.0, 0.0
    windows = injector.outage_windows_until(end_time)
    outage = sum(end - start for start, end in windows)
    receptions = sorted(t for f in flows for (t, _nbytes) in f.stats.reception_times)
    delivered_during = 0.0
    if windows:
        starts = [start for start, _end in windows]
        for f in flows:
            for t, nbytes in f.stats.reception_times:
                index = bisect.bisect_right(starts, t) - 1
                if index >= 0 and t <= windows[index][1]:
                    delivered_during += nbytes
    heals = injector.heal_times_until(end_time)
    recovery = 0.0
    if heals:
        delays = []
        for heal in heals:
            index = bisect.bisect_left(receptions, heal)
            next_delivery = receptions[index] if index < len(receptions) else end_time
            delays.append(next_delivery - heal)
        recovery = sum(delays) / len(delays)
    return injector.applied_events, outage, delivered_during, recovery


def collect_metrics(
    network: Network,
    flows: Sequence[FlowHandle],
    duration: float,
    protocol: str,
) -> ScenarioMetrics:
    """Extract a :class:`ScenarioMetrics` from a finished run."""
    stats = network.stats
    end_time = network.sim.now
    flow_goodputs = {f.flow_id: f.stats.flow_goodput_bps(end_time) for f in flows}
    delivered_fractions = [f.delivered_fraction for f in flows]
    fault_events, outage_seconds, delivered_during, recovery_seconds = _resilience_metrics(
        network, flows, end_time
    )
    return ScenarioMetrics(
        protocol=protocol,
        num_nodes=network.num_nodes,
        num_flows=len(flows),
        duration=duration,
        energy_joules=stats.total_energy_joules(),
        delivered_bytes=stats.total_delivered_bytes(),
        energy_per_bit_joules=stats.energy_per_delivered_bit(),
        goodput_bps=(sum(flow_goodputs.values()) / len(flow_goodputs)) if flow_goodputs else 0.0,
        aggregate_goodput_bps=stats.aggregate_goodput_bps(duration),
        delivered_fraction=(sum(delivered_fractions) / len(delivered_fractions)) if delivered_fractions else 0.0,
        source_retransmissions=stats.total_source_retransmissions(),
        cache_recoveries=stats.total_cache_recoveries(),
        queue_drops=network.total_queue_drops(),
        routing_drops=stats.routing_drops,
        link_transmissions=stats.link_transmissions,
        acks_sent=sum(f.stats.acks_sent for f in flows),
        ack_bytes=sum(f.stats.ack_bytes_sent for f in flows),
        fairness=jains_fairness_index(list(flow_goodputs.values())),
        per_node_energy=stats.per_node_energy(),
        per_flow_goodput=flow_goodputs,
        fault_events=fault_events,
        fault_outage_seconds=outage_seconds,
        delivered_bytes_during_faults=delivered_during,
        post_heal_recovery_seconds=recovery_seconds,
    )
