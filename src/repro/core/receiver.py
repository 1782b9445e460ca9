"""eJTP receiver (destination side of a JTP connection).

The destination owns *all* transmission parameters of the connection
(Section 5): it monitors the path through the header fields stamped by
iJTP, runs the PI²/MD sending-rate controller and the energy budget
controller, decides which missing packets are worth recovering given
the application's loss tolerance, and paces its own feedback stream —
regular feedback at the low variable rate ``T`` plus early feedback
whenever the flip-flop monitor flags a persistent path change.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Set, Tuple

from repro.core.config import JTPConfig
from repro.core.feedback import FeedbackScheduler
from repro.core.packet import AckInfo, Packet, PacketType
from repro.core.path_monitor import PathMonitor
from repro.core.rate_controller import EnergyBudgetController, PIMDRateController
from repro.sim.stats import FlowStats
from repro.sim.trace import TraceRecorder
from repro.util.validation import require_positive


class JTPReceiver:
    """Destination endpoint of one JTP transfer."""

    #: Minimum spacing between feedback packets, to keep a burst of
    #: monitor triggers from turning into an ACK storm.
    MIN_FEEDBACK_SPACING = 3.0

    #: How many final feedback messages to send once the transfer is
    #: satisfied before going quiet.
    FINAL_FEEDBACKS = 2

    #: Largest number of missing packets requested in one SNACK.  A
    #: bounded request keeps cache-retransmission bursts from
    #: overflowing mid-path queues; anything left over is requested in
    #: the next feedback message.
    MAX_SNACK_REPORT = 32

    def __init__(
        self,
        node,
        flow_id: int,
        src: int,
        total_packets: int,
        config: Optional[JTPConfig] = None,
        flow_stats: Optional[FlowStats] = None,
        trace: Optional[TraceRecorder] = None,
        delivery_rate_limit_pps: Optional[float] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.flow_id = flow_id
        self.src = src
        self.total_packets = int(require_positive(total_packets, "total_packets"))
        self.config = config or JTPConfig()
        self.flow_stats = flow_stats or FlowStats(flow_id, src, node.node_id)
        self.trace = trace if trace is not None else TraceRecorder()
        self.delivery_rate_limit_pps = delivery_rate_limit_pps
        self.on_complete = on_complete

        self.monitor = PathMonitor(self.config)
        self.rate_controller = PIMDRateController(self.config)
        self.energy_controller = EnergyBudgetController(self.config)
        self.scheduler = FeedbackScheduler(self.config)

        self._received: Set[int] = set()
        self._forgiven: Set[int] = set()
        self._snack_issued_at: dict = {}
        self._highest_seq = -1
        self._max_forgivable = int(math.floor(self.config.loss_tolerance * self.total_packets))
        self._feedback_event = None
        self._feedback_seq = 0
        self._last_feedback_time = -float("inf")
        self._last_data_timestamp = 0.0
        self._final_feedbacks_sent = 0
        self._started = False
        self.satisfied_time: Optional[float] = None

    # -- lifecycle --------------------------------------------------------------------------

    def start(self) -> None:
        """Arm the first regular feedback timer."""
        if self._started:
            return
        self._started = True
        self._schedule_feedback(self._current_period())

    def _current_period(self) -> float:
        rtt = self.monitor.rtt_or(0.0)
        return self.scheduler.period(self.rate_controller.rate_pps, rtt)

    def _schedule_feedback(self, delay: float) -> None:
        if self._feedback_event is not None:
            self._feedback_event.cancel()
        self._feedback_event = self.sim.schedule(delay, self._periodic_feedback)

    # -- data path --------------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Handle a data packet delivered to this node."""
        if not packet.is_data:
            return
        now = self.sim.now
        duplicate = packet.seq in self._received
        self.flow_stats.record_delivery(now, packet.payload_bytes, duplicate=duplicate)
        if not duplicate:
            self._received.add(packet.seq)
            self._forgiven.discard(packet.seq)
            self._highest_seq = max(self._highest_seq, packet.seq)

        sample = self.monitor.observe_packet(packet, now)
        if packet.timestamp > 0:
            # With simulated clocks the one-way delay is known exactly;
            # double it for a round-trip estimate.
            self.monitor.observe_rtt(2.0 * max(0.0, now - packet.timestamp))
        self._last_data_timestamp = packet.timestamp

        if "jtp_receive" in self.trace.kinds:
            self.trace.record(
                "jtp_receive", now, flow=self.flow_id, seq=packet.seq,
                rate_stamp=packet.available_rate_pps, energy_used=packet.energy_used,
                monitor_mean=sample.available_rate.mean,
                monitor_ucl=sample.available_rate.upper_control_limit,
                monitor_lcl=sample.available_rate.lower_control_limit,
                duplicate=duplicate,
            )

        if sample.significant_change and now - self._last_feedback_time >= self.MIN_FEEDBACK_SPACING:
            self._send_feedback(early=True)

        self._check_satisfied(now)

    # -- application-level reliability ---------------------------------------------------------

    def _ack_state(self, now: float) -> Tuple[int, Tuple[int, ...]]:
        """Compute the cumulative ACK and the SNACK list.

        Missing packets are *forgiven* (never requested, treated as
        acknowledged) oldest-first, as long as the total number of
        forgiven packets stays within the application's loss-tolerance
        budget.  Everything else missing below the highest received
        sequence number is SNACKed.  The SNACK is always the complete
        list of still-wanted packets (up to the report cap): the sender
        relies on "below highest-received and not SNACKed" meaning
        "delivered", so omitting a wanted packet here would make the
        sender discard it prematurely.  Duplicate-retransmission
        suppression is the retransmitters' job (iJTP holds off on
        recently recovered packets, the sender on recently resent ones).
        """
        missing = [
            seq for seq in range(self._highest_seq + 1)
            if seq not in self._received and seq not in self._forgiven
        ]
        budget = self._max_forgivable - len(self._forgiven)
        if budget > 0 and missing:
            for seq in missing[:budget]:
                self._forgiven.add(seq)
            missing = missing[budget:]
        cumulative = self._cumulative_ack()
        snack = tuple(missing[: self.MAX_SNACK_REPORT])
        for seq in snack:
            self._snack_issued_at[seq] = now
        return cumulative, snack

    def _cumulative_ack(self) -> int:
        """Highest sequence number such that everything at or below it is settled."""
        cumulative = -1
        settled = self._received | self._forgiven
        for seq in range(self._highest_seq + 1):
            if seq in settled:
                cumulative = seq
            else:
                break
        return cumulative

    def _check_satisfied(self, now: float) -> None:
        if self.satisfied_time is not None:
            return
        if len(self._received) + len(self._forgiven) >= self.total_packets and self._cumulative_ack() >= self.total_packets - 1:
            self.satisfied_time = now
            if self.on_complete is not None:
                self.on_complete(now)

    # -- feedback ---------------------------------------------------------------------------------

    def _periodic_feedback(self) -> None:
        self._send_feedback(early=False)

    def _send_feedback(self, early: bool) -> None:
        now = self.sim.now

        # Stop acknowledging once the transfer is satisfied and a couple
        # of final feedback messages have been delivered; an idle
        # receiver that keeps acknowledging forever would burn exactly
        # the energy JTP is designed to save.
        if self.satisfied_time is not None and self._final_feedbacks_sent >= self.FINAL_FEEDBACKS:
            return

        available = self.monitor.average_available_rate
        if available is not None:
            self.rate_controller.update(available, self.delivery_rate_limit_pps)
        self.energy_controller.update(self.monitor.energy_upper_control_limit)

        cumulative, snack = self._ack_state(now)
        # Forgiving packets inside _ack_state may have just settled the
        # whole transfer; re-evaluate so the receiver can go quiet.
        self._check_satisfied(now)
        period = self._current_period()
        ack = AckInfo(
            cumulative_ack=cumulative,
            highest_received=self._highest_seq,
            snack=snack,
            locally_recovered=(),
            rate_pps=self.rate_controller.rate_pps,
            energy_budget=self.energy_controller.budget_or(0.0),
            sender_timeout=self.scheduler.sender_timeout(period),
            echo_timestamp=self._last_data_timestamp,
            feedback_seq=self._feedback_seq,
        )
        packet = Packet(
            flow_id=self.flow_id,
            seq=self._feedback_seq,
            packet_type=PacketType.ACK,
            src=self.node.node_id,
            dst=self.src,
            payload_bytes=0.0,
            header_bytes=self.config.header_bytes + self.config.ack_header_bytes,
            timestamp=now,
            ack=ack,
        )
        self._feedback_seq += 1
        self.node.send(packet)
        self.flow_stats.record_ack(packet.size_bytes)
        if early:
            self.scheduler.note_early_feedback()
        else:
            self.scheduler.note_regular_feedback()
        self._last_feedback_time = now
        if self.satisfied_time is not None:
            self._final_feedbacks_sent += 1

        if "jtp_feedback" in self.trace.kinds:
            self.trace.record(
                "jtp_feedback", now, flow=self.flow_id, early=early,
                cumulative=cumulative, snack=len(snack),
                rate=self.rate_controller.rate_pps, period=period,
            )
        self._schedule_feedback(period)
