"""Feedback scheduling at the destination (Section 5.1).

JTP keeps the feedback/ACK stream as sparse as the path's stability and
the application's requirements allow.  On a stable path feedback is
sent every ``T`` seconds with

    ``T = max(T_lower_bound, n / sending_rate)``,  n >= 1,

so the destination never acknowledges faster than the data arrives.
``T`` is additionally capped by the in-network cache size: if feedback
is so infrequent that requested packets have already been evicted from
the caches, the energy saved on ACKs is given straight back in source
retransmissions.  With a cache of ``C`` packets and a round-trip time
``RTT`` the cap is ``C / sending_rate − RTT``.

Significant path changes detected by the flip-flop monitor bypass the
schedule and trigger an immediate (early) feedback message.  A
``CONSTANT`` mode is provided for the Figure 7 comparison against
fixed-rate feedback.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import FeedbackMode, JTPConfig
from repro.util.validation import require_positive


class FeedbackScheduler:
    """Decides when the destination sends its next feedback packet."""

    def __init__(self, config: Optional[JTPConfig] = None):
        self.config = config or JTPConfig()
        self.regular_feedbacks = 0
        self.early_feedbacks = 0

    # -- period computation ----------------------------------------------------------------

    def variable_period(self, sending_rate: float, rtt: float = 0.0) -> float:
        """The stable-path feedback period T for the current sending rate."""
        cfg = self.config
        require_positive(sending_rate, "sending_rate")
        if rtt < 0:
            raise ValueError(f"rtt must be non-negative, got {rtt}")
        period = max(cfg.t_lower_bound, cfg.feedback_n / sending_rate)
        cache_cap = self.cache_limited_period(sending_rate, rtt)
        if cache_cap is not None:
            period = min(period, max(cache_cap, cfg.feedback_n / sending_rate))
        return period

    def cache_limited_period(self, sending_rate: float, rtt: float) -> Optional[float]:
        """Upper bound on T so SNACKed packets are still cached when requested.

        ``C / sending_rate − RTT`` with cache size C in packets.  Returns
        None when caching is disabled (no cache to be limited by — the
        JNC variant relies on source retransmissions anyway).
        """
        if not self.config.caching_enabled:
            return None
        require_positive(sending_rate, "sending_rate")
        bound = self.config.cache_size / sending_rate - rtt
        return max(bound, 0.0)

    def period(self, sending_rate: float, rtt: float = 0.0) -> float:
        """The feedback period under the configured mode."""
        if self.config.feedback_mode is FeedbackMode.CONSTANT:
            return self.config.constant_feedback_period
        return self.variable_period(sending_rate, rtt)

    # -- bookkeeping -------------------------------------------------------------------------

    def note_regular_feedback(self) -> None:
        """Record that a scheduled (periodic) feedback message was sent."""
        self.regular_feedbacks += 1

    def note_early_feedback(self) -> None:
        """Record that a monitor-triggered (early) feedback message was sent."""
        self.early_feedbacks += 1

    def sender_timeout(self, period: float) -> float:
        """Value placed in the ACK's sender-timeout field.

        The source treats the absence of feedback for longer than this
        (times the configured multiplier) as feedback loss and backs off
        multiplicatively — the paper's defence against rate-based flow
        control's vulnerability to lost feedback.
        """
        require_positive(period, "period")
        return period
