"""Measurement and accounting.

The paper's two headline metrics are:

* **energy per delivered bit** — system-wide energy attributed to
  transport-layer packets (a monitor at the link layer charges the
  transmission/reception energy of each transport packet, computed from
  the radio power, data rate and packet length), divided by the number
  of application bits delivered;
* **goodput** — the rate at which *new* application data is delivered.

In addition, individual figures use per-node energy (Fig. 4b), queue
drops (Fig. 7b), source retransmissions and cache hits (Figs. 6, 11c)
and reception-rate time series (Figs. 5, 8).  All of those counters
live here so that the experiment harness has a single place to read
results from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.units import bits_from_bytes


class EnergyMeter:
    """Per-node energy accounting with per-flow attribution."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.tx_joules = 0.0
        self.rx_joules = 0.0
        self.per_flow: Dict[int, float] = {}

    @property
    def total_joules(self) -> float:
        """Total transport-attributed energy spent by this node."""
        return self.tx_joules + self.rx_joules

    def record_tx(self, flow_id: int, joules: float) -> None:
        """Charge a transmission attempt to this node and flow."""
        self.tx_joules += joules
        self.per_flow[flow_id] = self.per_flow.get(flow_id, 0.0) + joules


@dataclass
class FlowStats:
    """Counters for one transport flow (one direction of a transfer)."""

    flow_id: int
    src: int
    dst: int
    transfer_bytes: float = 0.0

    # Sender side
    data_packets_sent: int = 0
    data_bytes_sent: float = 0.0
    source_retransmissions: int = 0
    sender_backoffs: int = 0

    # Receiver side
    data_packets_delivered: int = 0
    unique_bytes_delivered: float = 0.0
    duplicate_packets: int = 0
    acks_sent: int = 0
    ack_bytes_sent: float = 0.0

    # In-network behaviour
    cache_recoveries: int = 0
    cache_hits: int = 0
    in_network_drops: int = 0
    energy_budget_drops: int = 0

    start_time: Optional[float] = None
    first_delivery_time: Optional[float] = None
    last_delivery_time: Optional[float] = None
    completion_time: Optional[float] = None

    reception_times: List[Tuple[float, float]] = field(default_factory=list)

    def record_send(self, now: float, nbytes: float, retransmission: bool = False) -> None:
        """Record a source (re)transmission of ``nbytes`` of data."""
        if self.start_time is None:
            self.start_time = now
        self.data_packets_sent += 1
        self.data_bytes_sent += nbytes
        if retransmission:
            self.source_retransmissions += 1

    def record_delivery(self, now: float, nbytes: float, duplicate: bool = False) -> None:
        """Record delivery of a data packet to the application."""
        if duplicate:
            self.duplicate_packets += 1
            return
        self.data_packets_delivered += 1
        self.unique_bytes_delivered += nbytes
        if self.first_delivery_time is None:
            self.first_delivery_time = now
        self.last_delivery_time = now
        self.reception_times.append((now, nbytes))

    def record_ack(self, nbytes: float) -> None:
        """Record one feedback/ACK packet sent by the receiver."""
        self.acks_sent += 1
        self.ack_bytes_sent += nbytes

    def active_duration(self, end_time: float) -> float:
        """Seconds the flow was actively transferring.

        Runs from the flow's start until its completion, or until
        ``end_time`` if the transfer never completed within the run.
        """
        if self.start_time is None:
            return 0.0
        end = self.completion_time if self.completion_time is not None else end_time
        return max(0.0, end - self.start_time)

    def flow_goodput_bps(self, end_time: float) -> float:
        """Per-flow goodput over the flow's own active duration.

        This is the goodput "experienced by flows" that the paper plots:
        a flow that finished early is not penalised for the idle tail of
        the simulation.
        """
        duration = self.active_duration(end_time)
        if duration <= 0:
            return 0.0
        return bits_from_bytes(self.unique_bytes_delivered) / duration

    def delivery_fraction(self) -> float:
        """Fraction of the requested transfer delivered to the application."""
        if self.transfer_bytes <= 0:
            return 0.0
        return min(1.0, self.unique_bytes_delivered / self.transfer_bytes)

    def reception_rate_series(self, window: float, step: float, until: float) -> List[Tuple[float, float]]:
        """Windowed packet-reception-rate time series (Figures 5 and 8).

        Returns ``(time, packets_per_second)`` samples every ``step``
        seconds up to ``until``, each computed over the trailing
        ``window`` seconds.
        """
        if window <= 0 or step <= 0:
            raise ValueError("window and step must be positive")
        series: List[Tuple[float, float]] = []
        times = [t for t, _ in self.reception_times]
        t = step
        idx_low = 0
        idx_high = 0
        while t <= until + 1e-9:
            while idx_high < len(times) and times[idx_high] <= t:
                idx_high += 1
            while idx_low < idx_high and times[idx_low] < t - window:
                idx_low += 1
            series.append((t, (idx_high - idx_low) / window))
            t += step
        return series


class NetworkStats:
    """Aggregated, network-wide measurement state for one simulation run."""

    def __init__(self) -> None:
        self.energy: Dict[int, EnergyMeter] = {}
        self.flows: Dict[int, FlowStats] = {}
        self.link_transmissions = 0
        self.link_successes = 0
        self.routing_drops = 0
        self.control_bytes = 0.0

    # -- registration ---------------------------------------------------------------

    def register_node(self, node_id: int) -> EnergyMeter:
        """Create (or return) the energy meter for ``node_id``."""
        if node_id not in self.energy:
            self.energy[node_id] = EnergyMeter(node_id)
        return self.energy[node_id]

    def register_flow(self, flow_stats: FlowStats) -> FlowStats:
        """Register a flow's counter object."""
        self.flows[flow_stats.flow_id] = flow_stats
        return flow_stats

    # -- recording ------------------------------------------------------------------

    def record_link_attempt(self, success: bool) -> None:
        """Count one MAC transmission attempt."""
        self.link_transmissions += 1
        if success:
            self.link_successes += 1

    def record_routing_drop(self, count: int = 1) -> None:
        """Count packets dropped because no route existed."""
        self.routing_drops += count

    # -- derived metrics --------------------------------------------------------------

    def total_energy_joules(self) -> float:
        """System-wide transport-attributed energy."""
        return sum(meter.total_joules for meter in self.energy.values())

    def per_node_energy(self) -> Dict[int, float]:
        """Energy spent per node (Figure 4b)."""
        return {node_id: meter.total_joules for node_id, meter in self.energy.items()}

    def total_delivered_bytes(self) -> float:
        """Unique application bytes delivered across all flows."""
        return sum(flow.unique_bytes_delivered for flow in self.flows.values())

    def total_delivered_bits(self) -> float:
        return bits_from_bytes(self.total_delivered_bytes())

    def energy_per_delivered_bit(self) -> float:
        """Joules per delivered application bit (the paper's headline metric)."""
        bits = self.total_delivered_bits()
        if bits <= 0:
            return float("inf")
        return self.total_energy_joules() / bits

    def aggregate_goodput_bps(self, duration: float) -> float:
        """Total new application bits delivered per second."""
        if duration <= 0:
            return 0.0
        return self.total_delivered_bits() / duration

    def total_source_retransmissions(self) -> int:
        return sum(f.source_retransmissions for f in self.flows.values())

    def total_cache_recoveries(self) -> int:
        return sum(f.cache_recoveries for f in self.flows.values())

