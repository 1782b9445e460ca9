"""Per-neighbour link statistics.

The JAVeLEN MAC "keeps statistics about link transmissions and idle
slots in order to provide estimates of the available transmission rate
and of the packet loss rate on every link".  iJTP reads three things
from this estimator:

* the packet **loss rate** of the link (used to compute the per-packet
  maximum number of transmission attempts, Eq. 2),
* the **available rate** towards the neighbour (stamped into packet
  headers after normalising by the average number of link-layer
  attempts, Section 2.1.1),
* the **average number of link-layer attempts** per packet, which is
  the normalisation factor above.
"""

from __future__ import annotations

from repro.util.ewma import EWMA


class LinkEstimator:
    """EWMA-based estimator of one directed link's loss and usage."""

    def __init__(
        self,
        neighbor_id: int,
        loss_alpha: float = 0.1,
        attempts_alpha: float = 0.2,
        initial_loss: float = 0.1,
    ):
        self.neighbor_id = neighbor_id
        self._loss = EWMA(loss_alpha, initial=initial_loss)
        self._attempts = EWMA(attempts_alpha, initial=1.0)

    # -- updates driven by the MAC ----------------------------------------------------

    def record_attempt(self, success: bool) -> None:
        """Record the outcome of one transmission attempt on this link."""
        self._loss.update(0.0 if success else 1.0)

    def record_packet(self, attempts_used: int) -> None:
        """Record that a packet finished service after ``attempts_used`` attempts."""
        self._attempts.update(float(max(1, attempts_used)))

    # -- estimates consumed by iJTP ----------------------------------------------------

    @property
    def loss_rate(self) -> float:
        """Estimated per-attempt loss probability of this link."""
        return min(0.999, max(0.0, self._loss.value_or(0.1)))

    @property
    def average_attempts(self) -> float:
        """Estimated average number of link-layer attempts per packet."""
        return max(1.0, self._attempts.value_or(1.0))
