"""Reproduction of "An Energy-conscious Transport Protocol for Multi-hop
Wireless Networks" (JTP, Riga et al., CoNEXT 2007).

The package provides:

* :mod:`repro.core` — JTP itself (eJTP, iJTP, caching, flip-flop path
  monitoring, PI²/MD rate control, energy budgets, adjustable reliability);
* :mod:`repro.sim` — the discrete-event wireless network simulator the
  evaluation runs on (the substitute for the paper's OPNET environment);
* :mod:`repro.mac` — the JAVeLEN-like TDMA MAC with link estimators,
  bounded ARQ and a radio energy model;
* :mod:`repro.routing` — link-state routing with possibly stale views;
* :mod:`repro.transport` — the comparison baselines (TCP-SACK, ATP-like,
  UDP-like, JTP-without-caching) behind a common protocol interface;
* :mod:`repro.experiments` — scenario builders and one experiment
  definition per table/figure of the paper.

Quickstart::

    from repro import Network, open_transfer

    network = Network.linear(5)
    transfer = open_transfer(network, src=0, dst=4, transfer_bytes=50_000)
    network.run(600)
    print(network.stats.energy_per_delivered_bit())
"""

from repro.core import JTPConfig, JTPConnection, open_transfer
from repro.sim import Network, NetworkConfig, LinkQuality
from repro.mac import MacConfig, RadioEnergyModel
from repro.transport import make_protocol, available_protocols

__version__ = "1.0.0"

__all__ = [
    "JTPConfig",
    "JTPConnection",
    "open_transfer",
    "Network",
    "NetworkConfig",
    "LinkQuality",
    "MacConfig",
    "RadioEnergyModel",
    "make_protocol",
    "available_protocols",
    "__version__",
]
