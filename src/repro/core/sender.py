"""eJTP sender (source side of a JTP connection).

The sender's job is deliberately small — JTP is receiver-driven — but
what it does is central to the energy story:

* fragment the application transfer into packets and pace them out at
  the rate the destination currently allows;
* stamp every packet with the application's loss tolerance and the
  current per-packet energy budget;
* on feedback, retransmit only the SNACK entries *not* already served
  by an in-network cache, and **back off** its sending rate by
  ``t_b = Σ s_j / r(t)`` to account for the locally-recovered packets
  retransmitted on its behalf (Section 4.2, the fairness mechanism of
  Figure 5);
* treat prolonged feedback silence as feedback loss and back off
  multiplicatively (Section 5's defence for rate-based flow control);
* keep every unacknowledged packet buffered until the *destination*
  acknowledges it — caches are an optimisation, not the copy of record,
  which is how JTP preserves the end-to-end argument.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.core.config import JTPConfig
from repro.core.packet import Packet, PacketType
from repro.sim.stats import FlowStats
from repro.sim.trace import TraceRecorder
from repro.util.validation import clamp, require_positive


class JTPSender:
    """Source endpoint of one JTP transfer."""

    #: Seconds to wait before retransmitting the same packet again.
    #: Successive feedback messages keep SNACKing a missing packet until
    #: the copy in flight arrives; resending on every one of them would
    #: waste full-path transmissions.
    RESEND_HOLDOFF = 6.0

    def __init__(
        self,
        node,
        flow_id: int,
        dst: int,
        transfer_bytes: float,
        config: Optional[JTPConfig] = None,
        flow_stats: Optional[FlowStats] = None,
        trace: Optional[TraceRecorder] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.flow_id = flow_id
        self.dst = dst
        self.transfer_bytes = require_positive(transfer_bytes, "transfer_bytes")
        self.config = config or JTPConfig()
        self.flow_stats = flow_stats or FlowStats(flow_id, node.node_id, dst, transfer_bytes)
        self.trace = trace if trace is not None else TraceRecorder()
        self.on_complete = on_complete

        self._segments: List[float] = self._fragment(self.transfer_bytes, self.config.packet_size_bytes)
        self._pending_new: Deque[int] = deque(range(len(self._segments)))
        self._outstanding: Dict[int, float] = {}
        self._retransmit_queue: Deque[int] = deque()
        self._retransmit_set: Set[int] = set()
        self._unserved_acks: Dict[int, int] = {}
        self._last_sent_at: Dict[int, float] = {}

        self._rate_pps = self.config.initial_rate_pps
        self._energy_budget = float("inf")
        self._expected_feedback_period = self.config.t_lower_bound
        self._last_feedback_time: Optional[float] = None
        self._backoff_until = 0.0
        self._send_event = None
        self._watchdog_event = None
        self._started = False
        self.completed = False
        self.completion_time: Optional[float] = None
        self.acks_received = 0

    # -- setup ------------------------------------------------------------------------------

    @staticmethod
    def _fragment(transfer_bytes: float, packet_size: float) -> List[float]:
        """Split the transfer into payload sizes (the application-specific module)."""
        segments: List[float] = []
        remaining = transfer_bytes
        while remaining > 0:
            chunk = min(packet_size, remaining)
            segments.append(chunk)
            remaining -= chunk
        return segments

    @property
    def total_packets(self) -> int:
        """Number of data packets the transfer fragments into."""
        return len(self._segments)

    def start(self) -> None:
        """Begin the transfer: compute the initial energy budget, start pacing."""
        if self._started:
            return
        self._started = True
        self._energy_budget = self._initial_energy_budget()
        self.flow_stats.start_time = self.sim.now
        self._schedule_send(0.0)
        self._watchdog_event = self.sim.schedule(self._expected_feedback_period, self._feedback_watchdog)

    def _initial_energy_budget(self) -> float:
        """Budget from the energy the network would *typically* spend per packet.

        The source estimates one transmit+receive per hop along its
        current view of the path and applies a configurable margin.
        """
        hops = self.node.routing.hops_to(self.node.node_id, self.dst) or 1
        packet_bits = (self.config.packet_size_bytes + self.config.header_bytes) * 8.0
        per_hop = self.node.mac.config.energy.round_trip_energy(packet_bits)
        return self.config.initial_energy_budget_margin * hops * per_hop

    # -- pacing loop ---------------------------------------------------------------------------

    def _schedule_send(self, delay: float) -> None:
        if self._send_event is not None:
            self._send_event.cancel()
        self._send_event = self.sim.schedule(delay, self._send_next)

    def _send_next(self) -> None:
        if self.completed:
            return
        now = self.sim.now
        if now < self._backoff_until:
            self._schedule_send(self._backoff_until - now)
            return
        seq = self._next_seq_to_send()
        if seq is None:
            self._maybe_complete()
            if not self.completed:
                # Nothing to send but data is still unacknowledged: wait for feedback.
                self._schedule_send(max(1.0 / self._rate_pps, 0.5))
            return
        retransmission = seq in self._outstanding
        packet = self._build_packet(seq, retransmission=retransmission)
        self._outstanding[seq] = self._segments[seq]
        self._last_sent_at[seq] = now
        accepted = self.node.send(packet)
        self.flow_stats.record_send(now, self._segments[seq], retransmission=retransmission)
        if "jtp_send" in self.trace.kinds:
            self.trace.record(
                "jtp_send", now, flow=self.flow_id, seq=seq,
                retransmission=retransmission, rate=self._rate_pps, accepted=accepted,
            )
        self._schedule_send(1.0 / self._rate_pps)

    def _next_seq_to_send(self) -> Optional[int]:
        while self._retransmit_queue:
            seq = self._retransmit_queue.popleft()
            self._retransmit_set.discard(seq)
            if seq in self._outstanding:
                return seq
        if self._pending_new:
            return self._pending_new.popleft()
        return None

    def _build_packet(self, seq: int, retransmission: bool = False) -> Packet:
        now = self.sim.now
        # A retransmitted packet was explicitly requested by the
        # destination, so it is sent with full reliability regardless of
        # the application's loss tolerance for first attempts.
        loss_tolerance = 0.0 if retransmission else self.config.loss_tolerance
        return Packet(
            flow_id=self.flow_id,
            seq=seq,
            packet_type=PacketType.DATA,
            src=self.node.node_id,
            dst=self.dst,
            payload_bytes=self._segments[seq],
            header_bytes=self.config.header_bytes,
            loss_tolerance=loss_tolerance,
            energy_budget=self._energy_budget,
            available_rate_pps=float("inf"),
            created_at=now,
            timestamp=now,
        )

    # -- feedback handling -------------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Handle a feedback (ACK) packet delivered to this node."""
        if not packet.is_ack or packet.ack is None:
            return
        ack = packet.ack
        now = self.sim.now
        self.acks_received += 1
        self._last_feedback_time = now

        if ack.rate_pps > 0:
            self._rate_pps = clamp(ack.rate_pps, self.config.min_rate_pps, self.config.max_rate_pps)
        if ack.energy_budget > 0:
            self._energy_budget = ack.energy_budget
        if ack.sender_timeout > 0:
            self._expected_feedback_period = ack.sender_timeout

        self._apply_cumulative_ack(ack.cumulative_ack)
        self._apply_selective_acks(ack)
        self._queue_snack_retransmissions(ack.outstanding_snack())
        self._apply_cache_backoff(ack.locally_recovered, now)
        self._detect_tail_losses(ack)

        if "jtp_ack" in self.trace.kinds:
            self.trace.record(
                "jtp_ack", now, flow=self.flow_id, cumulative=ack.cumulative_ack,
                snack=len(ack.snack), recovered=len(ack.locally_recovered), rate=self._rate_pps,
            )
        self._maybe_complete()

    def _apply_cumulative_ack(self, cumulative_ack: int) -> None:
        if cumulative_ack < 0:
            return
        for seq in [s for s in self._outstanding if s <= cumulative_ack]:
            del self._outstanding[seq]
            self._unserved_acks.pop(seq, None)

    def _apply_selective_acks(self, ack) -> None:
        """Release packets implicitly acknowledged by the SNACK semantics.

        Everything at or below the receiver's highest received sequence
        number that is neither SNACKed (still missing and wanted) nor
        listed as locally recovered (in flight from a cache) has been
        delivered and can be dropped from the send buffer.
        """
        if ack.highest_received < 0:
            return
        pending = set(ack.snack) | set(ack.locally_recovered)
        for seq in [s for s in self._outstanding if s <= ack.highest_received and s not in pending]:
            del self._outstanding[seq]
            self._unserved_acks.pop(seq, None)

    def _queue_snack_retransmissions(self, snack) -> None:
        now = self.sim.now
        for seq in snack:
            if seq not in self._outstanding or seq in self._retransmit_set:
                continue
            last_sent = self._last_sent_at.get(seq)
            if last_sent is not None and now - last_sent < self.RESEND_HOLDOFF:
                continue
            self._retransmit_queue.append(seq)
            self._retransmit_set.add(seq)

    def _detect_tail_losses(self, ack) -> None:
        """Recover packets the receiver cannot know it is missing.

        A packet lost at the tail of the transfer (beyond the highest
        sequence number the receiver ever saw) never appears in any
        SNACK, so the source must notice the silence itself: if all new
        data has been sent and an outstanding packet survives a couple
        of feedback messages without being acknowledged, SNACKed or
        locally recovered, it is retransmitted end-to-end.  These are
        exactly the "occasional retransmissions from the source" the
        paper accepts as unavoidable.
        """
        if self._pending_new:
            return
        mentioned = set(ack.snack) | set(ack.locally_recovered)
        for seq in self._outstanding:
            if seq <= max(ack.cumulative_ack, ack.highest_received):
                continue
            if seq in mentioned or seq in self._retransmit_set:
                continue
            count = self._unserved_acks.get(seq, 0) + 1
            if count >= 2:
                self._retransmit_queue.append(seq)
                self._retransmit_set.add(seq)
                self._unserved_acks[seq] = 0
            else:
                self._unserved_acks[seq] = count

    def _apply_cache_backoff(self, locally_recovered, now: float) -> None:
        """Section 4.2: back off for packets retransmitted by in-network caches."""
        if not self.config.backoff_enabled or not locally_recovered:
            return
        recovered_count = len(locally_recovered)
        backoff = recovered_count / max(self._rate_pps, self.config.min_rate_pps)
        self._backoff_until = max(self._backoff_until, now + backoff)
        self.flow_stats.sender_backoffs += 1
        if "jtp_backoff" in self.trace.kinds:
            self.trace.record("jtp_backoff", now, flow=self.flow_id,
                              recovered=recovered_count, backoff=backoff)

    # -- feedback-loss watchdog ---------------------------------------------------------------------

    def _feedback_watchdog(self) -> None:
        if self.completed:
            return
        now = self.sim.now
        timeout = self.config.ack_timeout_multiplier * self._expected_feedback_period
        reference = self._last_feedback_time if self._last_feedback_time is not None else self.flow_stats.start_time
        if reference is not None and now - reference > timeout:
            self._rate_pps = clamp(
                self._rate_pps * self.config.kd, self.config.min_rate_pps, self.config.max_rate_pps
            )
            self._last_feedback_time = now
            if "jtp_feedback_timeout" in self.trace.kinds:
                self.trace.record("jtp_feedback_timeout", now, flow=self.flow_id, rate=self._rate_pps)
        self._watchdog_event = self.sim.schedule(self._expected_feedback_period, self._feedback_watchdog)

    # -- completion -------------------------------------------------------------------------------------

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
        if self._watchdog_event is not None:
            self._watchdog_event.cancel()
        if "jtp_complete" in self.trace.kinds:
            self.trace.record("jtp_complete", self.sim.now, flow=self.flow_id)
        if self.on_complete is not None:
            self.on_complete(self.sim.now)
