"""Small shared utilities used across the JTP reproduction.

The utilities are deliberately dependency-free so that every other
subpackage (simulator, MAC, routing, transport, experiments) can import
them without creating cycles.
"""

from repro.util.ewma import EWMA, WindowedRate
from repro.util.units import (
    BITS_PER_BYTE,
    bits_from_bytes,
    joules_to_microjoules,
    transmission_time,
)
from repro.util.validation import (
    require_positive,
    require_non_negative,
    require_probability,
    require_in_range,
    clamp,
)

__all__ = [
    "EWMA",
    "WindowedRate",
    "BITS_PER_BYTE",
    "bits_from_bytes",
    "joules_to_microjoules",
    "transmission_time",
    "require_positive",
    "require_non_negative",
    "require_probability",
    "require_in_range",
    "clamp",
]
