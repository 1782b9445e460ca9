"""JTP configuration.

Table 1 of the paper lists the default parameter values used throughout
the evaluation:

============================  =============
MAX_ATTEMPTS                  5
JTP packet size               800 bytes
Cache size                    1000 packets
T_lower_bound                 10 s
============================  =============

and the prototype header sizes are 28 bytes for the JTP header and
200 bytes for the (unoptimised) ACK header.  All remaining knobs —
controller gains, filter weights, feedback behaviour — are collected
here with sensible defaults so that every experiment can express its
deviation from the defaults as a small, explicit override.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from repro.util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
)


class FeedbackMode(Enum):
    """How the destination paces its feedback/ACK stream (Section 5)."""

    VARIABLE = "variable"
    CONSTANT = "constant"


@dataclass(frozen=True)
class JTPConfig:
    """All tunable parameters of a JTP connection and its iJTP modules."""

    # --- Table 1 defaults -----------------------------------------------------------
    packet_size_bytes: float = 800.0
    max_attempts: int = 5
    cache_size: int = 1000
    t_lower_bound: float = 10.0

    # --- header sizes (prototype implementation values quoted in Section 6.1) --------
    header_bytes: float = 28.0
    ack_header_bytes: float = 200.0

    # --- application reliability (Section 3) -----------------------------------------
    loss_tolerance: float = 0.0

    # --- sending-rate control (Section 5.2.1, Eqs. 9-10) ------------------------------
    initial_rate_pps: float = 1.0
    min_rate_pps: float = 0.5
    max_rate_pps: float = 8.0
    ki: float = 0.5
    kd: float = 0.8
    delta_target_pps: float = 1.0

    # --- flip-flop path monitor (Section 5.1, Eqs. 7-8) -------------------------------
    alpha_stable: float = 0.3
    alpha_agile: float = 0.7
    beta_range: float = 0.1
    control_limit_sigma: float = 3.0
    control_limit_d2: float = 1.128
    outlier_trigger_count: int = 3

    # --- energy budget controller (Section 5.2.4, Eq. 13) -----------------------------
    beta_energy: float = 1.5
    initial_energy_budget_margin: float = 3.0

    # --- feedback scheduling (Section 5.1) ---------------------------------------------
    feedback_mode: FeedbackMode = FeedbackMode.VARIABLE
    feedback_n: float = 4.0
    constant_feedback_period: float = 5.0
    ack_timeout_multiplier: float = 2.0

    # --- in-network caching (Section 4) -------------------------------------------------
    caching_enabled: bool = True

    # --- fair-caching source back-off (Section 4.2) --------------------------------------
    backoff_enabled: bool = True

    # --- miscellaneous --------------------------------------------------------------------
    rtt_alpha: float = 0.2
    equal_link_targets: bool = True

    def __post_init__(self) -> None:
        require_positive(self.packet_size_bytes, "packet_size_bytes")
        require_positive(self.max_attempts, "max_attempts")
        require_positive(self.cache_size, "cache_size")
        require_positive(self.t_lower_bound, "t_lower_bound")
        require_non_negative(self.header_bytes, "header_bytes")
        require_non_negative(self.ack_header_bytes, "ack_header_bytes")
        require_probability(self.loss_tolerance, "loss_tolerance")
        require_positive(self.initial_rate_pps, "initial_rate_pps")
        require_positive(self.min_rate_pps, "min_rate_pps")
        require_positive(self.max_rate_pps, "max_rate_pps")
        if self.min_rate_pps > self.max_rate_pps:
            raise ValueError("min_rate_pps must not exceed max_rate_pps")
        require_in_range(self.ki, 1e-6, 1.0, "ki")
        require_in_range(self.kd, 1e-6, 1.0 - 1e-9, "kd")
        require_non_negative(self.delta_target_pps, "delta_target_pps")
        require_in_range(self.alpha_stable, 0.0, 1.0, "alpha_stable")
        require_in_range(self.alpha_agile, 0.0, 1.0, "alpha_agile")
        if self.alpha_agile < self.alpha_stable:
            raise ValueError("alpha_agile must be at least alpha_stable (agile filter catches up faster)")
        require_in_range(self.beta_range, 0.0, 1.0, "beta_range")
        require_positive(self.control_limit_sigma, "control_limit_sigma")
        require_positive(self.control_limit_d2, "control_limit_d2")
        require_positive(self.outlier_trigger_count, "outlier_trigger_count")
        if self.beta_energy <= 1.0:
            raise ValueError("beta_energy must be > 1 so the path monitor can still detect outliers (Eq. 13)")
        require_positive(self.initial_energy_budget_margin, "initial_energy_budget_margin")
        require_positive(self.feedback_n, "feedback_n")
        require_positive(self.constant_feedback_period, "constant_feedback_period")
        if self.ack_timeout_multiplier < 1.0:
            raise ValueError("ack_timeout_multiplier must be >= 1")
        require_in_range(self.rtt_alpha, 0.0, 1.0, "rtt_alpha")

    # -- convenience -------------------------------------------------------------------

    def variant(self, **overrides) -> "JTPConfig":
        """A copy of this configuration with some fields overridden.

        Experiments use this to express "same as default except ..."
        concisely, e.g. ``config.variant(loss_tolerance=0.1)`` for the
        jtp10 flows of Figure 3.
        """
        return dataclasses.replace(self, **overrides)

    @classmethod
    def jtp0(cls) -> "JTPConfig":
        """Fully reliable JTP (0% loss tolerance), the paper's default for comparisons."""
        return cls(loss_tolerance=0.0)

    @classmethod
    def jtp10(cls) -> "JTPConfig":
        """JTP with 10% application loss tolerance (Figure 3)."""
        return cls(loss_tolerance=0.10)

    @classmethod
    def jtp20(cls) -> "JTPConfig":
        """JTP with 20% application loss tolerance (Figure 3)."""
        return cls(loss_tolerance=0.20)
