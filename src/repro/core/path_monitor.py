"""Destination-side path monitoring (Section 5.1).

eJTP at the destination collects per-packet samples of the path's
state — the minimum available rate stamped along the path and the
energy used by each packet — and runs one flip-flop filter per metric.
A persistent change in either metric (a run of consecutive outliers)
is a *significant change* that triggers an early feedback message; the
filtered averages are what the PI²/MD rate controller and the energy
budget controller consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import JTPConfig
from repro.core.flipflop import FilterReading, FlipFlopFilter
from repro.core.packet import Packet
from repro.util.ewma import EWMA


@dataclass(frozen=True)
class PathSample:
    """The monitor's interpretation of one received data packet."""

    available_rate: FilterReading
    energy_used: Optional[FilterReading]
    significant_change: bool


class PathMonitor:
    """Flip-flop-filtered view of the forward path as seen at the destination."""

    def __init__(self, config: Optional[JTPConfig] = None):
        self.config = config or JTPConfig()
        cfg = self.config
        self.rate_filter = FlipFlopFilter(
            alpha_stable=cfg.alpha_stable,
            alpha_agile=cfg.alpha_agile,
            beta=cfg.beta_range,
            sigma=cfg.control_limit_sigma,
            d2=cfg.control_limit_d2,
            outlier_trigger_count=cfg.outlier_trigger_count,
        )
        self.energy_filter = FlipFlopFilter(
            alpha_stable=cfg.alpha_stable,
            alpha_agile=cfg.alpha_agile,
            beta=cfg.beta_range,
            sigma=cfg.control_limit_sigma,
            d2=cfg.control_limit_d2,
            outlier_trigger_count=cfg.outlier_trigger_count,
        )
        self._rtt = EWMA(cfg.rtt_alpha)
        self.packets_observed = 0
        self.significant_changes = 0

    # -- sample ingestion ---------------------------------------------------------------

    def observe_packet(self, packet: Packet, now: float) -> PathSample:
        """Fold one received data packet's header information into the monitor."""
        self.packets_observed += 1
        rate_reading = self.rate_filter.update(self._bounded_rate(packet.available_rate_pps))
        energy_reading: Optional[FilterReading] = None
        if packet.energy_used > 0.0:
            energy_reading = self.energy_filter.update(packet.energy_used)
        significant = rate_reading.triggered or (energy_reading.triggered if energy_reading else False)
        if significant:
            self.significant_changes += 1
        return PathSample(
            available_rate=rate_reading,
            energy_used=energy_reading,
            significant_change=significant,
        )

    def observe_rtt(self, rtt_sample: float) -> float:
        """Fold an RTT sample (from an echoed timestamp) into the smoothed RTT."""
        if rtt_sample < 0:
            raise ValueError(f"RTT samples must be non-negative, got {rtt_sample}")
        return self._rtt.update(rtt_sample)

    def _bounded_rate(self, rate: float) -> float:
        """Clamp the stamped rate: an un-stamped packet carries +inf."""
        if rate == float("inf"):
            return self.config.max_rate_pps
        return max(0.0, rate)

    # -- values consumed by the controllers -----------------------------------------------

    @property
    def average_available_rate(self) -> Optional[float]:
        """Filtered minimum-available-rate estimate A̅ (Eq. 9 input)."""
        return self.rate_filter.mean

    @property
    def energy_upper_control_limit(self) -> Optional[float]:
        """The eUCL input to the energy budget controller (Eq. 13)."""
        return self.energy_filter.upper_control_limit

    def rtt_or(self, default: float) -> float:
        return self._rtt.value_or(default)
