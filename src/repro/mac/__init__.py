"""JAVeLEN-like media-access substrate.

The paper runs JTP over the JAVeLEN system, whose TDMA MAC provides:

* practically collision-free channel access via pseudo-random schedules,
* per-link statistics — an estimate of the available transmission rate
  and of the packet loss rate on every link,
* a bounded number of link-layer transmission attempts per packet that
  an upper layer (iJTP) can set per packet.

This package reproduces that interface with a slot-based TDMA MAC
(:mod:`repro.mac.tdma`), a radio energy model (:mod:`repro.mac.energy`),
per-neighbour link estimators (:mod:`repro.mac.link_estimator`), an ARQ
policy (:mod:`repro.mac.arq`) and a CSMA/CA variant
(:mod:`repro.mac.csma`) for the paper's remark that JTP also operates
over contention-based MACs, where collisions simply show up as extra
link loss.
"""

from repro.mac.energy import RadioEnergyModel
from repro.mac.link_estimator import LinkEstimator
from repro.mac.arq import ArqPolicy
from repro.mac.tdma import MacConfig, TdmaMac
from repro.mac.csma import CsmaMac

__all__ = [
    "RadioEnergyModel",
    "LinkEstimator",
    "ArqPolicy",
    "MacConfig",
    "TdmaMac",
    "CsmaMac",
]
