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

from repro.util.validation import require_in_range


class LinkEstimator:
    """EWMA-based estimator of one directed link's loss and usage.

    ``loss_average`` and ``attempts_average`` are the raw moving
    averages, ``x̄ ← (1 - α)·x̄ + α·x`` (Eq. 7), as plain floats seeded at
    construction.  The MAC folds every attempt into them inline
    (``TdmaMac._attempt``) with the same expressions as
    :meth:`record_attempt` and :meth:`record_packet`.
    """

    def __init__(
        self,
        neighbor_id: int,
        loss_alpha: float = 0.1,
        attempts_alpha: float = 0.2,
        initial_loss: float = 0.1,
    ):
        self.neighbor_id = neighbor_id
        self.loss_alpha = require_in_range(loss_alpha, 0.0, 1.0, "loss_alpha")
        self.attempts_alpha = require_in_range(attempts_alpha, 0.0, 1.0, "attempts_alpha")
        self.loss_average = initial_loss
        self.attempts_average = 1.0

    # -- updates driven by the MAC ----------------------------------------------------

    def record_attempt(self, success: bool) -> None:
        """Record the outcome of one transmission attempt on this link."""
        alpha = self.loss_alpha
        self.loss_average = (1.0 - alpha) * self.loss_average + alpha * (0.0 if success else 1.0)

    def record_packet(self, attempts_used: int) -> None:
        """Record that a packet finished service after ``attempts_used`` attempts."""
        alpha = self.attempts_alpha
        self.attempts_average = (1.0 - alpha) * self.attempts_average + alpha * float(max(1, attempts_used))

    # -- estimates consumed by iJTP ----------------------------------------------------

    @property
    def loss_rate(self) -> float:
        """Estimated per-attempt loss probability of this link, in [0, 0.999].

        The conditional picks what ``min(0.999, max(0.0, loss))`` picks,
        NaN included, without the two calls.
        """
        loss = self.loss_average
        return 0.999 if loss > 0.999 else (loss if loss > 0.0 else 0.0)

    @property
    def average_attempts(self) -> float:
        """Estimated average number of link-layer attempts per packet (at least 1)."""
        attempts = self.attempts_average
        return attempts if attempts > 1.0 else 1.0
