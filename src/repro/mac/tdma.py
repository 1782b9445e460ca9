"""TDMA-style media access.

The JAVeLEN MAC gives each node a pseudo-random, collision-free slot
schedule and turns the radio off outside those slots.  For the purposes
of the transport-layer study we model the consequences of that design
rather than the slot assignment algorithm itself:

* each node owns a configurable **share** of the channel
  (``slot_share``), so its maximum service rate is
  ``slot_share * datarate / packet_airtime``;
* transmissions from different nodes never collide — losses come only
  from the channel's per-link loss process;
* each packet is given a bounded number of transmission attempts,
  either the MAC default or a per-packet value installed by iJTP;
* the MAC exposes per-link loss-rate / available-rate / average-attempt
  estimates, which is the exact interface the paper says JTP requires
  from any underlying architecture.

Upper layers hook into the MAC through two hook lists mirroring the
paper's Algorithms 1 and 2:

* ``pre_transmit_hooks`` run exactly before a packet's first
  transmission on a link (iJTP's ``PreXmit``) as
  ``hook(packet, mac, next_hop)``; a hook reads the link state it needs
  on demand (:meth:`TdmaMac.link_estimator`,
  :meth:`TdmaMac.available_rate_pps`, ``mac.remaining_hops_fn``), and
  returning ``False`` drops the packet;
* ``post_receive_hooks`` run exactly after a packet is received from
  the physical layer (iJTP's ``PostRcv``) as ``hook(packet, mac)``;
  returning ``False`` consumes the packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.mac.arq import ArqPolicy
from repro.mac.energy import RadioEnergyModel
from repro.mac.link_estimator import LinkEstimator
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.queue import DropTailQueue
from repro.sim.stats import NetworkStats
from repro.sim.trace import TraceRecorder
from repro.util.ewma import WindowedRate
from repro.util.units import bits_from_bytes
from repro.util.validation import require_in_range, require_positive


@dataclass(frozen=True)
class MacConfig:
    """Static configuration of a node's MAC."""

    energy: RadioEnergyModel = field(default_factory=RadioEnergyModel)
    arq: ArqPolicy = field(default_factory=ArqPolicy)
    slot_share: float = 0.25
    guard_time: float = 0.002
    queue_capacity: int = 50
    reference_packet_bytes: float = 828.0
    estimator_window: float = 5.0
    loss_alpha: float = 0.1
    attempts_alpha: float = 0.2
    min_available_rate_pps: float = 0.1

    def __post_init__(self) -> None:
        require_in_range(self.slot_share, 0.01, 1.0, "slot_share")
        require_positive(self.queue_capacity, "queue_capacity")
        require_positive(self.reference_packet_bytes, "reference_packet_bytes")
        require_positive(self.estimator_window, "estimator_window")

    @cached_property
    def nominal_rate_pps(self) -> float:
        """Maximum packets per second this node can emit given its slot share.

        Cached: the config is frozen and this is read on every MAC
        service decision (``cached_property`` writes straight into the
        instance ``__dict__``, which the frozen dataclass permits).
        """
        airtime = self.energy.airtime(bits_from_bytes(self.reference_packet_bytes))
        return self.slot_share / (airtime + self.guard_time)


# Hook signatures:
#   pre-transmit:  hook(packet, mac, next_hop) -> bool  (False drops the packet)
#   post-receive:  hook(packet, mac) -> bool            (False consumes the packet)
PreTransmitHook = Callable[[object, "TdmaMac", int], bool]
PostReceiveHook = Callable[[object, "TdmaMac"], bool]


class TdmaMac:
    """One node's MAC instance."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        channel: Channel,
        stats: NetworkStats,
        config: Optional[MacConfig] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.node_id = node_id
        self.sim = sim
        self.channel = channel
        self.stats = stats
        self.config = config or MacConfig()
        self.trace = trace if trace is not None else TraceRecorder()
        # Read once per attempt, so cached: one attribute load in untraced runs.
        self._trace_attempts = "mac_attempt" in self.trace.kinds

        self.queue: DropTailQueue[Tuple[object, int]] = DropTailQueue(self.config.queue_capacity)
        self.pre_transmit_hooks: List[PreTransmitHook] = []
        self.post_receive_hooks: List[PostReceiveHook] = []

        # Set by the Node / Network wiring: ``peers[i]`` is node i's MAC.
        self.peers: Sequence[TdmaMac] = ()
        self.deliver_upstream: Optional[Callable[[object, int], None]] = None
        self.on_packet_dropped: Optional[Callable[[object, str], None]] = None
        self.remaining_hops_fn: Optional[Callable[[object], Optional[int]]] = None

        self._estimators: Dict[int, LinkEstimator] = {}
        # Frame size in bits -> (tx energy, rx energy, service time,
        # retry delay) of one attempt; see _price_attempt.
        self._attempt_costs: Dict[float, Tuple[float, float, float, float]] = {}
        # The MAC observes from its construction time, so the meter's
        # warm-up span starts now rather than at the first transmission.
        self._node_tx_rate = WindowedRate(self.config.estimator_window, start=sim.now)
        self._busy = False
        self._energy_meter = stats.register_node(node_id)
        # Fault injection: an inactive MAC (crashed or paused node)
        # accepts nothing and transmits nothing.  The epoch counter
        # invalidates retry chains scheduled before a crash, so a frame
        # never survives its node's reboot.
        self.active = True
        self._epoch = 0

    # -- link estimation --------------------------------------------------------------

    def link_estimator(self, neighbor: int) -> LinkEstimator:
        """Return (creating if needed) the estimator for the link to ``neighbor``."""
        estimator = self._estimators.get(neighbor)
        if estimator is None:
            estimator = LinkEstimator(
                neighbor,
                loss_alpha=self.config.loss_alpha,
                attempts_alpha=self.config.attempts_alpha,
                initial_loss=self.channel.average_loss_probability(self.node_id, neighbor),
            )
            self._estimators[neighbor] = estimator
        return estimator

    def available_rate_pps(self, neighbor: int) -> float:
        """Available transmission rate towards ``neighbor``, in packets/second.

        In the JAVeLEN TDMA MAC this is the rate of unused slots during
        which the neighbour is awake.  We approximate it as the node's
        nominal slot-share rate minus its measured transmission-attempt
        rate, scaled down by the MAC queue occupancy (a backlogged queue
        means there is no spare capacity regardless of what the slot
        arithmetic says), and floored at a small positive value so the
        flow controller never receives a zero and stalls permanently.
        """
        used = self._node_tx_rate.rate(self.sim.now)
        available = self.config.nominal_rate_pps - used
        backlog_fraction = len(self.queue) / self.queue.capacity
        available *= max(0.0, 1.0 - backlog_fraction)
        return max(self.config.min_available_rate_pps, available)

    # -- transmit path ----------------------------------------------------------------

    def enqueue(self, packet: object, next_hop: int) -> bool:
        """Queue ``packet`` for transmission to ``next_hop``.

        Returns False and counts a queue drop if the MAC queue is full.
        """
        if not self.active:
            self._dropped(packet, "node_down")
            return False
        accepted = self.queue.push((packet, next_hop))
        if not accepted:
            self.stats.record_queue_drop()
            self._dropped(packet, "queue_full")
            return False
        if not self._busy:
            self._busy = True
            self.sim.schedule(0.0, self._service_next)
        return True

    @staticmethod
    def _packet_bits(packet: object) -> float:
        try:
            return float(packet.size_bits)  # type: ignore[attr-defined]
        except (AttributeError, TypeError):
            # TypeError covers size_bits = None (attribute declared but
            # never filled in) — the same caller bug as a missing one.
            raise AttributeError("packets handled by the MAC must expose 'size_bits'") from None

    def _service_next(self) -> None:
        if not self.active:
            # The node went down with this continuation pending; the
            # service loop dies here and restarts on reactivation.
            self._busy = False
            return
        entry = self.queue.pop()
        if entry is None:
            self._busy = False
            return
        packet, next_hop = entry
        # Hooks read link state on demand, so frames that need none (an
        # unhooked MAC, an ACK) read none (docs/performance.md, "MAC
        # service path").
        for hook in self.pre_transmit_hooks:
            if not hook(packet, self, next_hop):
                self._dropped(packet, "pre_transmit_hook")
                self.sim.schedule(0.0, self._service_next)
                return
        attempts_allowed = self.config.arq.attempts_for(getattr(packet, "max_link_attempts", None))
        self._attempt(packet, next_hop, 1, attempts_allowed)

    def _retry(self, epoch: int, packet: object, next_hop: int, attempt_no: int, attempts_allowed: int) -> None:
        """A scheduled link-layer retry; gated on the fault epoch.

        If the node crashed after this retry was scheduled, the frame
        died with the radio: it is dropped even if the node has since
        recovered, and the (restarted) service loop moves on.
        """
        if epoch != self._epoch:
            self._dropped(packet, "node_down")
            if self.active:
                self.sim.schedule(0.0, self._service_next)
            else:
                self._busy = False
            return
        self._attempt(packet, next_hop, attempt_no, attempts_allowed)

    def _attempt(self, packet: object, next_hop: int, attempt_no: int, attempts_allowed: int) -> None:
        if not self.active:
            # The node paused with this attempt in flight: the frame is
            # lost (the radio is off) and the loop parks until resume.
            self._dropped(packet, "node_down")
            self._busy = False
            return
        # Hot path: one call per MAC transmission attempt.  A hit in the
        # per-size cost cache skips re-validating the frame size: only a
        # valid size was ever stored.
        costs = self._attempt_costs.get(getattr(packet, "size_bits", None))
        if costs is None:
            costs = self._price_attempt(packet)
        tx_energy, rx_energy, service_time, retry_delay = costs
        now = self.sim.now
        stats = self.stats
        flow_id = getattr(packet, "flow_id", -1)

        # Inline twin of EnergyMeter.record_tx.
        meter = self._energy_meter
        meter.tx_joules += tx_energy
        per_flow = meter.per_flow
        per_flow[flow_id] = per_flow.get(flow_id, 0.0) + tx_energy
        # Charge the header's energy-used field, if the packet has one.
        # Only a missing attribute is tolerated: a read-only one raises,
        # so energy is never silently undercounted.  Nothing reads the
        # field before the reception charge below adds to it.
        try:
            energy_used = packet.energy_used  # type: ignore[attr-defined]
        except AttributeError:
            energy_used = None
        else:
            energy_used = packet.energy_used = energy_used + tx_energy  # type: ignore[attr-defined]
        self._node_tx_rate.record(now, 1.0)

        estimator = self._estimators.get(next_hop) or self.link_estimator(next_hop)
        success = self.channel.transmission_succeeds(self.node_id, next_hop, now)
        # Inline twins of LinkEstimator.record_attempt and .record_packet
        # (``attempt_no >= 1``) and NetworkStats.record_link_attempt.
        stats.link_transmissions += 1
        if success:
            stats.link_successes += 1
        estimator._loss.update(0.0 if success else 1.0)
        if self._trace_attempts:
            self.trace.record("mac_attempt", now, node=self.node_id, neighbor=next_hop, flow=flow_id,
                              attempt=attempt_no, allowed=attempts_allowed, success=success)

        if success:
            estimator._attempts.update(attempt_no)
            # Charge the reception to the receiving node and flow.
            receiver = stats.energy.get(next_hop) or stats.register_node(next_hop)
            receiver.rx_joules += rx_energy
            per_flow = receiver.per_flow
            per_flow[flow_id] = per_flow.get(flow_id, 0.0) + rx_energy
            if energy_used is not None:
                packet.energy_used = energy_used + rx_energy  # type: ignore[attr-defined]
            self.sim.schedule(service_time, self._deliver_and_continue, next_hop, packet)
        elif attempt_no < attempts_allowed:
            self.sim.schedule(service_time + retry_delay, self._retry,
                              self._epoch, packet, next_hop, attempt_no + 1, attempts_allowed)
        else:
            estimator._attempts.update(attempt_no)
            self._dropped(packet, "link_exhausted")
            self.sim.schedule(service_time, self._service_next)

    def _price_attempt(self, packet: object) -> Tuple[float, float, float, float]:
        """Tx energy, rx energy, service time and retry delay of one attempt.

        The same floating-point expressions the energy model and the ARQ
        policy evaluate, cached per frame size for :meth:`_attempt`.  The
        service time scales the airtime by the inverse of the node's slot
        share: a node owning 25% of the slots needs four slot periods of
        wall clock to get one packet's worth of airtime.
        """
        nbits = self._packet_bits(packet)
        config = self.config
        energy_model = config.energy
        airtime = energy_model.airtime(nbits)
        service_time = (airtime + config.guard_time) / config.slot_share
        costs = (
            energy_model.tx_power_watts * airtime,
            energy_model.rx_power_watts * airtime,
            service_time,
            service_time + config.arq.retry_delay(service_time) - service_time,
        )
        self._attempt_costs[nbits] = costs
        return costs

    def _deliver_and_continue(self, next_hop: int, packet: object) -> None:
        """End of a successful attempt: hand the frame over, then serve the next one.

        One event where a delivery and a ``_service_next`` at the same
        instant would hold adjacent sequence numbers anyway.
        """
        self.peers[next_hop].receive(packet, self.node_id)
        self._service_next()

    def _dropped(self, packet: object, reason: str) -> None:
        if "mac_drop" in self.trace.kinds:
            self.trace.record("mac_drop", self.sim.now, node=self.node_id, reason=reason,
                              flow=getattr(packet, "flow_id", -1))
        if self.on_packet_dropped is not None:
            self.on_packet_dropped(packet, reason)

    # -- receive path ------------------------------------------------------------------

    def receive(self, packet: object, from_node: int) -> None:
        """Called by the network when a frame from ``from_node`` arrives here."""
        if not self.active:
            # A frame already in flight when the node went down arrives
            # at a dead radio.
            self._dropped(packet, "node_down")
            return
        for hook in self.post_receive_hooks:
            if not hook(packet, self):
                return
        if self.deliver_upstream is None:
            raise RuntimeError("MAC is not wired to a node (deliver_upstream is None)")
        self.deliver_upstream(packet, from_node)

    # -- fault injection ---------------------------------------------------------------

    def deactivate(self, flush: bool = True) -> None:
        """Take the radio down (fault injection).

        ``flush=True`` is crash semantics: the queue is drained with
        every frame counted as dropped, the link estimators (soft state)
        are forgotten, and the fault epoch advances so retry chains
        scheduled before the crash cannot outlive it.  ``flush=False``
        is pause semantics: queued frames and estimator state survive
        until :meth:`reactivate`.

        ``_busy`` is deliberately left alone: any pending service-loop
        continuation converts itself into a loop shutdown when it fires
        against the inactive flag, which keeps the one-loop invariant
        without cancellable event handles.
        """
        if not self.active:
            return
        self.active = False
        if flush:
            self._epoch += 1
            for packet, _next_hop in self.queue.drain():
                self._dropped(packet, "node_down")
            self._estimators.clear()
            self._node_tx_rate = WindowedRate(self.config.estimator_window, start=self.sim.now)

    def reactivate(self) -> None:
        """Bring the radio back up and restart the service loop if needed."""
        if self.active:
            return
        self.active = True
        if not self._busy and len(self.queue):
            self._busy = True
            self.sim.schedule(0.0, self._service_next)

    # -- introspection -----------------------------------------------------------------

    @property
    def queue_drops(self) -> int:
        """Packets dropped by this node's MAC queue."""
        return self.queue.drops

    def describe(self) -> str:
        return (
            f"TDMA MAC node={self.node_id} share={self.config.slot_share} "
            f"nominal={self.config.nominal_rate_pps:.2f} pps"
        )
