"""UDP-like unreliable constant-rate transport.

The Figure 5 fairness experiment pits a reliable JTP flow against a
flow that "does not request packet retransmissions (i.e. UDP-like
flow)".  This module provides that flow type: a sender that paces
datagrams at a fixed rate with no feedback channel at all, and a
receiver that merely counts what arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.core.packet import Packet, PacketType
from repro.sim.network import Network
from repro.sim.stats import FlowStats
from repro.transport.base import FlowHandle, TransportProtocol
from repro.util.validation import require_positive


@dataclass(frozen=True)
class UdpConfig:
    """Parameters of the UDP-like baseline."""

    packet_size_bytes: float = 800.0
    header_bytes: float = 28.0
    rate_pps: float = 2.0

    def __post_init__(self) -> None:
        require_positive(self.packet_size_bytes, "packet_size_bytes")
        require_positive(self.rate_pps, "rate_pps")


class UdpSender:
    """Constant-rate datagram source."""

    def __init__(
        self,
        node,
        flow_id: int,
        dst: int,
        transfer_bytes: float,
        config: UdpConfig,
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
        self._next_seq = 0
        self._send_event = None
        self.completed = False
        self.completion_time: Optional[float] = None

    def start(self) -> None:
        self.flow_stats.start_time = self.sim.now
        self._send_event = self.sim.schedule(0.0, self._send_next)

    def _send_next(self) -> None:
        if self._next_seq >= len(self._segments):
            self.completed = True
            self.completion_time = self.sim.now
            self.flow_stats.completion_time = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self.sim.now)
            return
        now = self.sim.now
        seq = self._next_seq
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
        self.node.send(packet)
        self.flow_stats.record_send(now, self._segments[seq])
        self._next_seq += 1
        self._send_event = self.sim.schedule(1.0 / self.config.rate_pps, self._send_next)

    def on_packet(self, packet: Packet) -> None:
        """UDP has no feedback channel; anything arriving here is ignored."""


class UdpReceiver:
    """Counts delivered datagrams; never sends anything back."""

    def __init__(self, node, flow_id: int, src: int, flow_stats: FlowStats):
        self.node = node
        self.sim = node.sim
        self.flow_id = flow_id
        self.src = src
        self.flow_stats = flow_stats
        self._received: Set[int] = set()

    def start(self) -> None:
        """Nothing to schedule."""

    def on_packet(self, packet: Packet) -> None:
        if not packet.is_data:
            return
        duplicate = packet.seq in self._received
        self.flow_stats.record_delivery(self.sim.now, packet.payload_bytes, duplicate=duplicate)
        if not duplicate:
            self._received.add(packet.seq)


class UdpProtocol(TransportProtocol):
    """The UDP-like baseline wrapped in the common interface."""

    name = "udp"

    def __init__(self, config: Optional[UdpConfig] = None):
        self.config = config or UdpConfig()

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
        sender = UdpSender(network.node(src), flow_id, dst, transfer_bytes, self.config, flow_stats)
        receiver = UdpReceiver(network.node(dst), flow_id, src, flow_stats)
        network.node(src).register_agent(flow_id, sender)
        network.node(dst).register_agent(flow_id, receiver)
        network.sim.schedule_at(max(start_time, network.sim.now), sender.start)
        return FlowHandle(flow_id=flow_id, src=src, dst=dst, protocol=self.name,
                          stats=flow_stats, sender=sender, receiver=receiver)
