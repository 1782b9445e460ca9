"""Link-layer ARQ policy.

The MAC retransmits a packet over a link up to a per-packet bound.  For
JTP that bound is set per packet by iJTP from the packet's loss
tolerance (Section 3); for the baseline transports the MAC uses its
default bound (MAX_ATTEMPTS from Table 1).  This module captures the
policy — how many attempts a packet gets and how attempts are spaced —
separately from the MAC's event machinery so it can be unit-tested and
ablated in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.validation import require_positive


@dataclass(frozen=True)
class ArqPolicy:
    """How many link-layer attempts a packet may use and how they are spaced."""

    default_attempts: int = 5
    max_attempts: int = 5
    retry_spacing_slots: int = 1

    def __post_init__(self) -> None:
        require_positive(self.default_attempts, "default_attempts")
        require_positive(self.max_attempts, "max_attempts")
        require_positive(self.retry_spacing_slots, "retry_spacing_slots")
        if self.default_attempts > self.max_attempts:
            raise ValueError(
                f"default_attempts ({self.default_attempts}) cannot exceed "
                f"max_attempts ({self.max_attempts})"
            )

    def attempts_for(self, requested: Optional[int]) -> int:
        """Clamp a per-packet attempt request into the policy's bounds.

        ``None`` means the upper layer did not express a preference, in
        which case the MAC default applies (this is what happens for the
        TCP/ATP/UDP baselines, which have no iJTP).
        """
        if requested is None:
            return self.default_attempts
        return max(1, min(int(requested), self.max_attempts))

    def retry_delay(self, slot_duration: float) -> float:
        """Seconds between successive attempts at the same packet."""
        return self.retry_spacing_slots * slot_duration

