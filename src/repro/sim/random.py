"""Named, independently seeded random streams.

A single master seed deterministically derives one :class:`random.Random`
instance per named stream ("channel", "mobility", "workload", ...).
Keeping the streams separate means, for example, that changing the
transport protocol under test does not perturb the link loss process —
the paper's evaluation makes the same point ("we ensured that all the
protocols run under the same conditions in the same run").
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory for named, reproducible random number generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
            derived = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def spawn(self, offset: int) -> "RandomStreams":
        """Derive an independent :class:`RandomStreams` (for replicated runs)."""
        return RandomStreams(self.seed * 1_000_003 + offset)
