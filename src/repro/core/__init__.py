"""JTP — the JAVeLEN Transport Protocol (the paper's primary contribution).

The package is organised exactly along the paper's component split:

* **eJTP**, the end-to-end component, lives in
  :mod:`repro.core.sender`, :mod:`repro.core.receiver` and
  :mod:`repro.core.connection`, with the destination-side control loops
  in :mod:`repro.core.path_monitor`, :mod:`repro.core.flipflop`,
  :mod:`repro.core.rate_controller` and :mod:`repro.core.feedback`.
* **iJTP**, the hop-by-hop component, lives in :mod:`repro.core.ijtp`
  (Algorithms 1 and 2) and :mod:`repro.core.cache` (in-network packet
  caching with LRU eviction).
* The adjustable-reliability mathematics of Section 3 (Equations 1–4)
  is in :mod:`repro.core.reliability`, and the analytic caching-gain
  model of Section 4.1 (Equations 5–6) in :mod:`repro.core.analysis`.
* Packet formats (Figure 2) and their binary codec are in
  :mod:`repro.core.packet`; all tunables (Table 1 plus controller
  gains) are in :mod:`repro.core.config`.
"""

from repro.core.config import JTPConfig, FeedbackMode
from repro.core.packet import Packet, PacketType, AckInfo, PacketCodec
from repro.core.reliability import (
    per_link_success_target,
    attempts_for_target,
    updated_loss_tolerance,
    end_to_end_success_probability,
    plan_hop_attempts,
)
from repro.core.cache import PacketCache
from repro.core.flipflop import FlipFlopFilter, FilterReading
from repro.core.path_monitor import PathMonitor, PathSample
from repro.core.rate_controller import PIMDRateController, EnergyBudgetController, simulate_rate_convergence
from repro.core.feedback import FeedbackScheduler
from repro.core.ijtp import IntermediateJTP
from repro.core.sender import JTPSender
from repro.core.receiver import JTPReceiver
from repro.core.connection import JTPConnection, open_transfer
from repro.core.analysis import (
    expected_transmissions_with_caching,
    expected_transmissions_without_caching,
    caching_gain,
)

__all__ = [
    "JTPConfig",
    "FeedbackMode",
    "Packet",
    "PacketType",
    "AckInfo",
    "PacketCodec",
    "per_link_success_target",
    "attempts_for_target",
    "updated_loss_tolerance",
    "end_to_end_success_probability",
    "plan_hop_attempts",
    "PacketCache",
    "FlipFlopFilter",
    "FilterReading",
    "PathMonitor",
    "PathSample",
    "PIMDRateController",
    "EnergyBudgetController",
    "simulate_rate_convergence",
    "FeedbackScheduler",
    "IntermediateJTP",
    "JTPSender",
    "JTPReceiver",
    "JTPConnection",
    "open_transfer",
    "expected_transmissions_with_caching",
    "expected_transmissions_without_caching",
    "caching_gain",
]
