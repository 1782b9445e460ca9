"""Unit helpers: bits, bytes, seconds and joules.

The JTP paper reports energy either in joules, millijoules or
micro-joules per bit depending on the figure, and packet sizes in
bytes.  Keeping the conversions in one place avoids the classic
factor-of-eight and factor-of-a-thousand mistakes.
"""

from __future__ import annotations

BITS_PER_BYTE = 8


def bits_from_bytes(nbytes: float) -> float:
    """Convert a byte count to a bit count."""
    return float(nbytes) * BITS_PER_BYTE


def joules_to_microjoules(joules: float) -> float:
    """Convert joules to microjoules."""
    return joules * 1e6


def transmission_time(nbits: float, datarate_bps: float) -> float:
    """Time in seconds to clock ``nbits`` onto the air at ``datarate_bps``.

    Raises ``ValueError`` for a non-positive data rate because a zero
    rate would silently produce infinite transmission times and hang
    the simulation.
    """
    if datarate_bps <= 0:
        raise ValueError(f"datarate must be positive, got {datarate_bps}")
    if nbits < 0:
        raise ValueError(f"bit count must be non-negative, got {nbits}")
    return nbits / datarate_bps

