"""Destination-based congestion avoidance (Section 5.2).

**PI²/MD sending-rate controller** (Eqs. 9-10): when the filtered
available path rate A̅ exceeds the target δ the rate grows by
``K_I · A̅ / r`` (proportional to spare capacity, inversely proportional
to the current rate to favour slow flows — this is where fairness comes
from); when A̅ falls below δ the rate is cut multiplicatively by
``K_D``.  Section 5.2.2 proves convergence for any ``K_I > 0`` and
``K_D < 1`` via a Lyapunov argument; :func:`simulate_rate_convergence`
reproduces that closed-loop model so the property tests can check the
claim numerically.

**Energy budget controller** (Eq. 13): the budget fed back to the
source is ``β · eUCL`` with ``β > 1``, i.e. a headroom factor above the
path monitor's upper control limit for per-packet energy, so transient
surges and route failures do not starve packets of budget while the
monitor can still flag outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import JTPConfig
from repro.util.validation import clamp, require_positive


class PIMDRateController:
    """The destination's sending-rate controller."""

    def __init__(self, config: Optional[JTPConfig] = None, initial_rate: Optional[float] = None):
        self.config = config or JTPConfig()
        self._rate = initial_rate if initial_rate is not None else self.config.initial_rate_pps
        self._rate = clamp(self._rate, self.config.min_rate_pps, self.config.max_rate_pps)
        self.increases = 0
        self.decreases = 0

    @property
    def rate_pps(self) -> float:
        """The sending rate currently allowed to the source."""
        return self._rate

    def update(self, available_rate: float, delivery_limit: Optional[float] = None) -> float:
        """Fold one available-rate observation into the rate (Eqs. 9-10).

        ``delivery_limit`` is the receiver's own delivery rate up the
        stack; the paper notes the destination also limits the sending
        rate by it.
        """
        cfg = self.config
        if available_rate > cfg.delta_target_pps:
            self._rate = self._rate + cfg.ki * available_rate / max(self._rate, cfg.min_rate_pps)
            self.increases += 1
        else:
            self._rate = cfg.kd * self._rate
            self.decreases += 1
        if delivery_limit is not None:
            self._rate = min(self._rate, max(cfg.min_rate_pps, delivery_limit))
        self._rate = clamp(self._rate, cfg.min_rate_pps, cfg.max_rate_pps)
        return self._rate


class EnergyBudgetController:
    """The destination's per-packet energy budget controller (Eq. 13)."""

    def __init__(self, config: Optional[JTPConfig] = None):
        self.config = config or JTPConfig()
        self._budget: Optional[float] = None

    def update(self, energy_upper_control_limit: Optional[float]) -> Optional[float]:
        """Compute ``e = β · eUCL`` from the path monitor's control limit."""
        if energy_upper_control_limit is None or energy_upper_control_limit <= 0.0:
            return self._budget
        self._budget = self.config.beta_energy * energy_upper_control_limit
        return self._budget

    def budget_or(self, default: float) -> float:
        return default if self._budget is None else self._budget


@dataclass(frozen=True)
class RateTrajectory:
    """Result of the closed-loop convergence model of Section 5.2.2."""

    rates: List[float]
    converged: bool
    settling_index: Optional[int]


def simulate_rate_convergence(
    capacity: float,
    initial_rate: float,
    ki: float,
    kd: float,
    iterations: int = 200,
    tolerance: float = 0.05,
) -> RateTrajectory:
    """Iterate Eqs. (11)-(12): a single flow over a fixed-capacity channel.

    The Lyapunov analysis guarantees |C - r| shrinks every step whenever
    ``K_I > 0`` and ``K_D < 1``; the returned trajectory lets tests (and
    the stability benchmark) verify convergence speed and the
    oscillation/settling trade-off for different gains.
    """
    require_positive(capacity, "capacity")
    require_positive(initial_rate, "initial_rate")
    require_positive(ki, "ki")
    if not 0.0 < kd < 1.0:
        raise ValueError(f"kd must be in (0, 1), got {kd}")
    rates = [initial_rate]
    settling_index: Optional[int] = None
    rate = initial_rate
    for index in range(iterations):
        if rate < capacity:
            rate = rate + ki * (capacity - rate) / rate
        elif rate > capacity:
            rate = kd * rate
        rates.append(rate)
        if settling_index is None and abs(rate - capacity) <= tolerance * capacity:
            settling_index = index + 1
    converged = abs(rates[-1] - capacity) <= tolerance * capacity
    return RateTrajectory(rates=rates, converged=converged, settling_index=settling_index)
