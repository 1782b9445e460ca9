"""ATP-like explicit-rate baseline.

The paper's second comparison protocol represents the class of
explicit rate-based transports for ad-hoc networks (ATP, Sundaresan et
al. 2003): intermediate nodes stamp the available rate into data packet
headers, the receiver feeds the collected rate back to the sender at a
**constant** period (chosen larger than the RTT, as ATP recommends),
and loss recovery is **end-to-end only** — there is no in-network
caching and no per-packet reliability adjustment.  Like TCP it offers
only full reliability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.core.packet import AckInfo, Packet, PacketType
from repro.mac.tdma import LinkContext
from repro.sim.network import Network
from repro.sim.stats import FlowStats
from repro.transport.base import FlowHandle, TransportProtocol
from repro.util.ewma import EWMA
from repro.util.validation import clamp, require_positive


@dataclass(frozen=True)
class AtpConfig:
    """Parameters of the ATP-like baseline."""

    packet_size_bytes: float = 800.0
    header_bytes: float = 32.0
    ack_bytes: float = 60.0
    feedback_period: float = 3.0
    initial_rate_pps: float = 1.0
    min_rate_pps: float = 0.1
    max_rate_pps: float = 50.0
    rate_alpha: float = 0.3
    rate_safety_factor: float = 0.9

    def __post_init__(self) -> None:
        require_positive(self.packet_size_bytes, "packet_size_bytes")
        require_positive(self.feedback_period, "feedback_period")
        require_positive(self.rate_safety_factor, "rate_safety_factor")


class AtpRateStamper:
    """Per-node hook that stamps the minimum available rate into data headers.

    This is ATP's network support: unlike iJTP it does not touch loss
    tolerance, attempt counts or caches — it only collects the rate.
    """

    def __init__(self) -> None:
        self.packets_stamped = 0

    def pre_transmit(self, packet: object, context: LinkContext) -> bool:
        if isinstance(packet, Packet) and packet.is_data:
            effective = context.available_rate_pps / max(1.0, context.average_attempts)
            packet.available_rate_pps = min(packet.available_rate_pps, effective)
            self.packets_stamped += 1
        return True


class AtpSender:
    """Source endpoint: rate-paced sending, end-to-end retransmission only."""

    def __init__(
        self,
        node,
        flow_id: int,
        dst: int,
        transfer_bytes: float,
        config: AtpConfig,
        flow_stats: FlowStats,
        on_complete: Optional[Callable[[float], None]] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.flow_id = flow_id
        self.dst = dst
        self.config = config
        self.flow_stats = flow_stats
        self.on_complete = on_complete

        segments: List[float] = []
        remaining = transfer_bytes
        while remaining > 0:
            chunk = min(config.packet_size_bytes, remaining)
            segments.append(chunk)
            remaining -= chunk
        self._segments = segments
        self._pending_new: Deque[int] = deque(range(len(segments)))
        self._outstanding: Dict[int, float] = {}
        self._retransmit_queue: Deque[int] = deque()
        self._retransmit_set: Set[int] = set()

        self._rate_pps = config.initial_rate_pps
        self._send_event = None
        self._silence_event = None
        self._last_feedback: Optional[float] = None
        self.completed = False
        self.completion_time: Optional[float] = None

    @property
    def total_packets(self) -> int:
        return len(self._segments)

    def start(self) -> None:
        self.flow_stats.start_time = self.sim.now
        self._schedule_send(0.0)
        self._silence_event = self.sim.schedule(3.0 * self.config.feedback_period, self._feedback_silence)

    def _schedule_send(self, delay: float) -> None:
        if self._send_event is not None:
            self._send_event.cancel()
        self._send_event = self.sim.schedule(delay, self._send_next)

    def _send_next(self) -> None:
        if self.completed:
            return
        seq = self._next_seq()
        if seq is None:
            self._maybe_complete()
            if not self.completed:
                self._schedule_send(max(0.5, 1.0 / self._rate_pps))
            return
        retransmission = seq in self._outstanding
        now = self.sim.now
        packet = Packet(
            flow_id=self.flow_id,
            seq=seq,
            packet_type=PacketType.DATA,
            src=self.node.node_id,
            dst=self.dst,
            payload_bytes=self._segments[seq],
            header_bytes=self.config.header_bytes,
            timestamp=now,
        )
        self._outstanding[seq] = self._segments[seq]
        self.node.send(packet)
        self.flow_stats.record_send(now, self._segments[seq], retransmission=retransmission)
        self._schedule_send(1.0 / self._rate_pps)

    def _next_seq(self) -> Optional[int]:
        while self._retransmit_queue:
            seq = self._retransmit_queue.popleft()
            self._retransmit_set.discard(seq)
            if seq in self._outstanding:
                return seq
        if self._pending_new:
            return self._pending_new.popleft()
        return None

    def on_packet(self, packet: Packet) -> None:
        if not packet.is_ack or packet.ack is None:
            return
        ack = packet.ack
        self._last_feedback = self.sim.now
        if ack.rate_pps > 0:
            self._rate_pps = clamp(
                self.config.rate_safety_factor * ack.rate_pps,
                self.config.min_rate_pps,
                self.config.max_rate_pps,
            )
        for seq in [s for s in self._outstanding if s <= ack.cumulative_ack]:
            del self._outstanding[seq]
        for seq in ack.snack:
            if seq in self._outstanding and seq not in self._retransmit_set:
                self._retransmit_queue.append(seq)
                self._retransmit_set.add(seq)
        self._maybe_complete()

    def _feedback_silence(self) -> None:
        """Halve the rate when the constant-rate feedback stream goes missing."""
        if self.completed:
            return
        now = self.sim.now
        reference = self._last_feedback if self._last_feedback is not None else self.flow_stats.start_time
        if reference is not None and now - reference > 3.0 * self.config.feedback_period:
            self._rate_pps = clamp(self._rate_pps * 0.5, self.config.min_rate_pps, self.config.max_rate_pps)
            self._last_feedback = now
        self._silence_event = self.sim.schedule(3.0 * self.config.feedback_period, self._feedback_silence)

    def _maybe_complete(self) -> None:
        if self.completed:
            return
        if self._pending_new or self._outstanding or self._retransmit_queue:
            return
        self.completed = True
        self.completion_time = self.sim.now
        self.flow_stats.completion_time = self.sim.now
        if self._send_event is not None:
            self._send_event.cancel()
        if self._silence_event is not None:
            self._silence_event.cancel()
        if self.on_complete is not None:
            self.on_complete(self.sim.now)


class AtpReceiver:
    """Destination endpoint: constant-period rate feedback, full reliability."""

    MAX_MISSING_REPORT = 64
    FINAL_FEEDBACKS = 2

    def __init__(
        self,
        node,
        flow_id: int,
        src: int,
        config: AtpConfig,
        flow_stats: FlowStats,
        total_packets: Optional[int] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.flow_id = flow_id
        self.src = src
        self.config = config
        self.flow_stats = flow_stats
        self.total_packets = total_packets
        self._received: Set[int] = set()
        self._highest = -1
        self._rate = EWMA(config.rate_alpha)
        self._last_timestamp = 0.0
        self._feedback_event = None
        self._started = False
        self._final_feedbacks_sent = 0

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._feedback_event = self.sim.schedule(self.config.feedback_period, self._periodic_feedback)

    def on_packet(self, packet: Packet) -> None:
        if not packet.is_data:
            return
        now = self.sim.now
        duplicate = packet.seq in self._received
        self.flow_stats.record_delivery(now, packet.payload_bytes, duplicate=duplicate)
        if not duplicate:
            self._received.add(packet.seq)
            self._highest = max(self._highest, packet.seq)
        if packet.available_rate_pps != float("inf"):
            self._rate.update(packet.available_rate_pps)
        self._last_timestamp = packet.timestamp

    def _cumulative_ack(self) -> int:
        cumulative = -1
        for seq in range(self._highest + 1):
            if seq in self._received:
                cumulative = seq
            else:
                break
        return cumulative

    def _is_complete(self) -> bool:
        return self.total_packets is not None and len(self._received) >= self.total_packets

    def _periodic_feedback(self) -> None:
        now = self.sim.now
        cumulative = self._cumulative_ack()
        if self._is_complete():
            # Everything has arrived: send a couple of final acknowledgments
            # so the sender can release its buffer, then go quiet.
            if self._final_feedbacks_sent >= self.FINAL_FEEDBACKS:
                return
            self._final_feedbacks_sent += 1
        missing = tuple(
            seq for seq in range(self._highest + 1) if seq not in self._received
        )[: self.MAX_MISSING_REPORT]
        ack = AckInfo(
            cumulative_ack=cumulative,
            snack=missing,
            locally_recovered=(),
            rate_pps=self._rate.value_or(self.config.initial_rate_pps),
            echo_timestamp=self._last_timestamp,
        )
        packet = Packet(
            flow_id=self.flow_id,
            seq=cumulative,
            packet_type=PacketType.ACK,
            src=self.node.node_id,
            dst=self.src,
            payload_bytes=0.0,
            header_bytes=self.config.ack_bytes,
            timestamp=now,
            ack=ack,
        )
        self.node.send(packet)
        self.flow_stats.record_ack(packet.size_bytes)
        self._feedback_event = self.sim.schedule(self.config.feedback_period, self._periodic_feedback)


class AtpProtocol(TransportProtocol):
    """The ATP-like baseline wrapped in the common interface."""

    name = "atp"

    def __init__(self, config: Optional[AtpConfig] = None):
        self.config = config or AtpConfig()
        self._stampers: Dict[int, AtpRateStamper] = {}

    def install(self, network: Network) -> None:
        """Install the rate-stamping hook on every node (idempotent)."""
        if getattr(network, "_atp_installed", False):
            return
        for node in network.nodes:
            stamper = AtpRateStamper()
            node.mac.pre_transmit_hooks.append(stamper.pre_transmit)
            self._stampers[node.node_id] = stamper
        network._atp_installed = True  # type: ignore[attr-defined]

    def create_flow(
        self,
        network: Network,
        src: int,
        dst: int,
        transfer_bytes: float,
        start_time: float = 0.0,
        flow_id: Optional[int] = None,
    ) -> FlowHandle:
        flow_id = flow_id if flow_id is not None else network.allocate_flow_id()
        flow_stats = FlowStats(flow_id, src, dst, transfer_bytes=transfer_bytes)
        network.stats.register_flow(flow_stats)
        sender = AtpSender(network.node(src), flow_id, dst, transfer_bytes, self.config, flow_stats)
        receiver = AtpReceiver(
            network.node(dst), flow_id, src, self.config, flow_stats,
            total_packets=sender.total_packets,
        )
        network.node(src).register_agent(flow_id, sender)
        network.node(dst).register_agent(flow_id, receiver)
        network.sim.schedule_at(max(start_time, network.sim.now), sender.start)
        network.sim.schedule_at(max(start_time, network.sim.now), receiver.start)
        return FlowHandle(flow_id=flow_id, src=src, dst=dst, protocol=self.name,
                          stats=flow_stats, sender=sender, receiver=receiver)
