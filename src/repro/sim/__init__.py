"""Discrete-event wireless network simulator.

This package is the reproduction's substitute for the OPNET simulation
environment used in the paper.  It provides:

* :mod:`repro.sim.engine` — the event scheduler and simulation clock,
* :mod:`repro.sim.random` — named, independently seeded random streams,
* :mod:`repro.sim.topology` — linear and random node placements and
  the unit-disk connectivity graph,
* :mod:`repro.sim.spatial` — an exact hash-grid neighbour index, kept
  for the end-to-end benchmark's trace; no simulation path uses it,
* :mod:`repro.sim.channel` — distance-based connectivity with a
  Gilbert–Elliott good/bad loss process per link,
* :mod:`repro.sim.faults` — the deterministic fault-injection engine:
  declarative :class:`FaultPlan` schedules (node crash/recover churn,
  link outages, partitions, regime blackouts) applied as first-class
  simulator events,
* :mod:`repro.sim.profile` — opt-in events/sec and per-callback
  profiling of the engine's run loop,
* :mod:`repro.sim.mobility` — the random-waypoint mobility model,
* :mod:`repro.sim.queue` — drop-tail packet queues,
* :mod:`repro.sim.node` / :mod:`repro.sim.network` — the layered node
  model and the network builder,
* :mod:`repro.sim.stats` — energy, goodput and drop accounting,
* :mod:`repro.sim.trace` — tracing of the requested event kinds, for time-series plots.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.random import RandomStreams
from repro.sim.channel import Channel, GilbertElliottLink, LinkQuality
from repro.sim.faults import FaultEvent, FaultInjector, FaultPlan, FaultProcess
from repro.sim.profile import CoreProfiler, profiled
from repro.sim.spatial import SpatialGrid
from repro.sim.topology import (
    Position,
    linear_positions,
    random_positions,
    connectivity_graph,
    is_connected,
)
from repro.sim.mobility import RandomWaypointMobility, StaticMobility
from repro.sim.queue import DropTailQueue
from repro.sim.node import Node
from repro.sim.network import Network, NetworkConfig
from repro.sim.stats import EnergyMeter, FlowStats, NetworkStats
from repro.sim.trace import TraceRecorder, TraceEvent

__all__ = [
    "Event",
    "Simulator",
    "RandomStreams",
    "Channel",
    "CoreProfiler",
    "GilbertElliottLink",
    "LinkQuality",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultProcess",
    "SpatialGrid",
    "profiled",
    "Position",
    "linear_positions",
    "random_positions",
    "connectivity_graph",
    "is_connected",
    "RandomWaypointMobility",
    "StaticMobility",
    "DropTailQueue",
    "Node",
    "Network",
    "NetworkConfig",
    "EnergyMeter",
    "FlowStats",
    "NetworkStats",
    "TraceRecorder",
    "TraceEvent",
]
