"""Deterministic fault injection.

The paper's protocols are built for lossy, mobile ad hoc networks, so a
reproduction that only ever exercises them on happy-path scenarios is
not testing the property the paper claims.  This module schedules
*faults* — node crashes, pauses, forced link outages, group partitions
and Gilbert–Elliott regime overrides — as first-class events on the
existing :class:`~repro.sim.engine.Simulator` heap.

Two layers:

* :class:`FaultPlan` is the declarative schedule: a tuple of fixed-time
  :class:`FaultEvent` entries plus zero or more :class:`FaultProcess`
  entries (Poisson arrivals with exponential outage lengths) that are
  materialised into concrete events at install time from the network's
  dedicated ``"faults"`` random stream.  A plan is plain frozen data:
  picklable, hashable, with a deterministic ``repr`` — so it can ride
  inside :class:`~repro.experiments.parallel.ScenarioSpec` params and
  key the incremental cell cache.
* :class:`FaultInjector` binds a plan to one network: it materialises
  the stochastic processes, schedules every event, applies the fault
  semantics (queue/cache/flow-soft-state teardown on crash, channel
  blocking, regime forcing) and records outage windows and counters for
  the resilience metrics.

Determinism contract: the injector draws only from
``network.streams.stream("faults")``, a stream no other component
touches, and it draws in a fixed order (per process, in declaration
order: inter-arrival gap, outage duration, target index).  The same
seed and plan therefore produce byte-identical event traces on every
backend; an *empty* plan leaves the simulation bit-identical to a run
with no plan installed at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # annotation-only: network.py imports this module lazily
    from repro.sim.network import Network

#: Every fault kind the engine understands, in taxonomy order.
FAULT_KINDS: Tuple[str, ...] = (
    "crash",
    "recover",
    "pause",
    "resume",
    "link_down",
    "link_up",
    "partition",
    "heal",
    "regime",
)

#: Kinds that target nodes / links, and kinds that may carry a duration
#: (the injector schedules the matching reverse event after it).
_NODE_KINDS = frozenset({"crash", "recover", "pause", "resume", "partition", "heal"})
_LINK_KINDS = frozenset({"link_down", "link_up"})
_TIMED_KINDS = frozenset({"crash", "pause", "link_down", "partition", "regime"})
_REVERSE: Dict[str, str] = {
    "crash": "recover",
    "pause": "resume",
    "link_down": "link_up",
    "partition": "heal",
    "regime": "regime",
}

_REGIMES = ("good", "bad")


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault at a fixed simulation time.

    ``nodes`` names the targets of node kinds (for ``partition``/``heal``
    it is the group cut off from — or rejoined with — the rest of the
    network); ``links`` names the directed pairs of link kinds (blocked
    symmetrically).  ``duration`` on a :data:`_TIMED_KINDS` event makes
    the injector schedule the reverse event that much later.  A
    ``regime`` event forces every Gilbert–Elliott link into the given
    state; ``regime=None`` restores the natural per-link process.
    """

    time: float
    kind: str
    nodes: Tuple[int, ...] = ()
    links: Tuple[Tuple[int, int], ...] = ()
    duration: Optional[float] = None
    regime: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind in _NODE_KINDS and not self.nodes:
            raise ValueError(f"{self.kind!r} fault needs at least one target node")
        if self.kind in _LINK_KINDS and not self.links:
            raise ValueError(f"{self.kind!r} fault needs at least one target link")
        if self.duration is not None:
            if self.kind not in _TIMED_KINDS:
                raise ValueError(f"{self.kind!r} fault cannot carry a duration")
            if self.duration <= 0:
                raise ValueError(f"fault duration must be > 0, got {self.duration}")
        if self.regime is not None and self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES} or None, got {self.regime!r}")
        if self.kind == "regime" and self.duration is not None and self.regime is None:
            raise ValueError("a timed regime event must force a state (regime='good'/'bad')")


@dataclass(frozen=True)
class FaultProcess:
    """A seeded stochastic fault source, materialised at install time.

    Events arrive as a Poisson process of the given ``rate`` between
    ``start`` and ``until``; each event lasts an exponential time with
    mean ``mean_duration`` and strikes one target drawn uniformly from
    the candidate pool (``nodes`` for node kinds, ``links`` for
    ``link_down``; a ``regime`` process needs no pool and forces
    ``regime``).  Materialisation draws, per event and in this order:
    inter-arrival gap, outage duration, target index.
    """

    kind: str
    rate: float
    mean_duration: float
    until: float
    start: float = 0.0
    nodes: Tuple[int, ...] = ()
    links: Tuple[Tuple[int, int], ...] = ()
    regime: str = "bad"

    def __post_init__(self) -> None:
        if self.kind not in _TIMED_KINDS:
            raise ValueError(
                f"stochastic faults must be a timed kind {sorted(_TIMED_KINDS)}, got {self.kind!r}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.mean_duration <= 0:
            raise ValueError(f"mean_duration must be > 0, got {self.mean_duration}")
        if self.start < 0 or self.until <= self.start:
            raise ValueError(f"need 0 <= start < until, got start={self.start}, until={self.until}")
        if self.kind in ("crash", "pause", "partition") and not self.nodes:
            raise ValueError(f"a {self.kind!r} process needs a candidate node pool")
        if self.kind == "link_down" and not self.links:
            raise ValueError("a 'link_down' process needs a candidate link pool")
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}, got {self.regime!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative fault schedule: fixed events plus stochastic processes.

    Plans are plain frozen data — picklable, comparable, with a
    deterministic ``repr`` — so they can travel inside scenario params
    across process boundaries and into cell-cache keys.
    """

    events: Tuple[FaultEvent, ...] = ()
    processes: Tuple[FaultProcess, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists at construction time; store tuples.
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "processes", tuple(self.processes))

    @classmethod
    def single_partition(
        cls, group: Tuple[int, ...], start: float, outage: float
    ) -> "FaultPlan":
        """Cut ``group`` off from the rest of the network, heal after ``outage``."""
        return cls(events=(FaultEvent(time=start, kind="partition", nodes=tuple(group), duration=outage),))

    @classmethod
    def node_churn(
        cls,
        nodes: Tuple[int, ...],
        rate: float,
        mean_downtime: float,
        until: float,
        start: float = 0.0,
    ) -> "FaultPlan":
        """Poisson crash/recover churn over a candidate node pool."""
        return cls(
            processes=(
                FaultProcess(
                    kind="crash",
                    rate=rate,
                    mean_duration=mean_downtime,
                    until=until,
                    start=start,
                    nodes=tuple(nodes),
                ),
            )
        )

    @classmethod
    def link_flapping(
        cls,
        links: Tuple[Tuple[int, int], ...],
        rate: float,
        mean_outage: float,
        until: float,
        start: float = 0.0,
    ) -> "FaultPlan":
        """Poisson forced link outages over a candidate link pool."""
        return cls(
            processes=(
                FaultProcess(
                    kind="link_down",
                    rate=rate,
                    mean_duration=mean_outage,
                    until=until,
                    start=start,
                    links=tuple(links),
                ),
            )
        )

    @classmethod
    def blackout(cls, start: float, outage: float) -> "FaultPlan":
        """Force every Gilbert–Elliott link into its bad state for ``outage`` seconds."""
        return cls(events=(FaultEvent(time=start, kind="regime", regime="bad", duration=outage),))


@dataclass
class _NodeState:
    """Injector-side view of one node's fault status."""

    crashed: bool = False
    paused: bool = False


class FaultInjector:
    """Applies a :class:`FaultPlan` to one network, deterministically.

    Construct via :meth:`repro.sim.network.Network.install_fault_plan`
    (before the network starts).  The injector owns all fault state:
    which nodes are down, which links are administratively blocked,
    whether a regime override is active — and mirrors it into the
    channel, the MACs and the iJTP caches as events fire.

    Outage accounting: the union of wall-clock windows during which at
    least one fault condition is active is recorded in
    :attr:`outage_windows` (query via :meth:`outage_windows_until` to
    close a still-open window at end of run); :attr:`counters` tallies
    applied events by kind.
    """

    def __init__(self, network: "Network", plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self.applied_events = 0
        self.counters: Dict[str, int] = {}
        self._installed = False
        self._node_states: Dict[int, _NodeState] = {}
        self._downed_links: Set[Tuple[int, int]] = set()
        self._partitions: Dict[Tuple[int, ...], Tuple[Tuple[int, int], ...]] = {}
        self._forced_regime: Optional[str] = None
        self._active_conditions = 0
        self._outage_start: Optional[float] = None
        self._windows: List[Tuple[float, float]] = []

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        """Materialise the plan and schedule every fault on the event heap."""
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        sim = self.network.sim
        for event in self.materialize():
            sim.schedule_at(event.time, self._apply, event)

    def materialize(self) -> Tuple[FaultEvent, ...]:
        """The concrete event schedule: fixed events plus drawn process events.

        Stochastic processes draw from the network's dedicated
        ``"faults"`` stream, in declaration order; per event the draws
        are gap, duration, target index.  The result is sorted by time
        (ties keep materialisation order) so the heap applies faults in
        a reproducible sequence.
        """
        events: List[FaultEvent] = list(self.plan.events)
        if self.plan.processes:
            rng = self.network.streams.stream("faults")
            for process in self.plan.processes:
                time = process.start
                while True:
                    time += rng.expovariate(process.rate)
                    if time >= process.until:
                        break
                    duration = rng.expovariate(1.0 / process.mean_duration)
                    if process.kind == "link_down":
                        link = process.links[rng.randrange(len(process.links))]
                        events.append(
                            FaultEvent(time=time, kind="link_down", links=(link,), duration=duration)
                        )
                    elif process.kind == "regime":
                        events.append(
                            FaultEvent(time=time, kind="regime", regime=process.regime, duration=duration)
                        )
                    elif process.kind == "partition":
                        events.append(
                            FaultEvent(
                                time=time, kind="partition", nodes=process.nodes, duration=duration
                            )
                        )
                    else:  # crash / pause on one drawn node
                        node = process.nodes[rng.randrange(len(process.nodes))]
                        events.append(
                            FaultEvent(time=time, kind=process.kind, nodes=(node,), duration=duration)
                        )
        indexed = list(enumerate(events))
        indexed.sort(key=lambda pair: (pair[1].time, pair[0]))
        return tuple(event for _index, event in indexed)

    # -- event application -------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        now = self.network.sim.now
        changed = False
        if event.kind == "crash":
            changed = any([self._crash_node(node) for node in event.nodes])
        elif event.kind == "recover":
            changed = any([self._recover_node(node) for node in event.nodes])
        elif event.kind == "pause":
            changed = any([self._pause_node(node) for node in event.nodes])
        elif event.kind == "resume":
            changed = any([self._resume_node(node) for node in event.nodes])
        elif event.kind == "link_down":
            changed = any([self._down_link(link) for link in event.links])
        elif event.kind == "link_up":
            changed = any([self._up_link(link) for link in event.links])
        elif event.kind == "partition":
            changed = self._partition(event.nodes)
        elif event.kind == "heal":
            changed = self._heal(event.nodes)
        elif event.kind == "regime":
            changed = self._set_regime(event.regime)
        if changed:
            self.applied_events += 1
            self.counters[event.kind] = self.counters.get(event.kind, 0) + 1
            trace = self.network.trace
            if "fault" in trace.kinds:
                trace.record(
                    "fault",
                    now,
                    fault=event.kind,
                    nodes=event.nodes,
                    links=event.links,
                    regime=event.regime,
                )
            if event.duration is not None:
                reverse = FaultEvent(
                    time=now + event.duration,
                    kind=_REVERSE[event.kind],
                    nodes=event.nodes,
                    links=event.links,
                    regime=None,
                )
                self.network.sim.schedule(event.duration, self._apply, reverse)

    # -- node faults -------------------------------------------------------------------

    def _state(self, node_id: int) -> _NodeState:
        state = self._node_states.get(node_id)
        if state is None:
            if not 0 <= node_id < self.network.num_nodes:
                raise ValueError(f"fault targets unknown node {node_id}")
            state = self._node_states[node_id] = _NodeState()
        return state

    def _crash_node(self, node_id: int) -> bool:
        state = self._state(node_id)
        if state.crashed:
            return False
        was_faulted = state.paused
        state.crashed = True
        state.paused = False
        node = self.network.nodes[node_id]
        node.on_crash()
        self._teardown_cache(node_id)
        self.network.channel.set_node_down(node_id, True)
        if not was_faulted:
            self._condition_began()
        return True

    def _recover_node(self, node_id: int) -> bool:
        state = self._state(node_id)
        if not state.crashed:
            return False
        state.crashed = False
        self.network.channel.set_node_down(node_id, False)
        self.network.nodes[node_id].on_recover()
        self._condition_ended()
        return True

    def _pause_node(self, node_id: int) -> bool:
        state = self._state(node_id)
        if state.crashed or state.paused:
            return False
        state.paused = True
        self.network.nodes[node_id].on_pause()
        self.network.channel.set_node_down(node_id, True)
        self._condition_began()
        return True

    def _resume_node(self, node_id: int) -> bool:
        state = self._state(node_id)
        if not state.paused:
            return False
        state.paused = False
        self.network.channel.set_node_down(node_id, False)
        self.network.nodes[node_id].on_resume()
        self._condition_ended()
        return True

    def _teardown_cache(self, node_id: int) -> None:
        """Crash semantics for iJTP soft state: the cache dies with the node."""
        modules = getattr(self.network, "_ijtp_modules", None)
        if modules is None:
            return
        module = modules[node_id]
        handler = getattr(module, "on_node_crash", None)
        if handler is not None:
            handler()

    # -- link faults -------------------------------------------------------------------

    def _down_link(self, link: Tuple[int, int]) -> bool:
        key = self._link_key(link)
        if key in self._downed_links:
            return False
        self._downed_links.add(key)
        self.network.channel.block_link(key[0], key[1], symmetric=True)
        self._condition_began()
        return True

    def _up_link(self, link: Tuple[int, int]) -> bool:
        key = self._link_key(link)
        if key not in self._downed_links:
            return False
        self._downed_links.discard(key)
        self.network.channel.unblock_link(key[0], key[1], symmetric=True)
        self._condition_ended()
        return True

    @staticmethod
    def _link_key(link: Tuple[int, int]) -> Tuple[int, int]:
        src, dst = link
        if src == dst:
            raise ValueError(f"a link fault needs two distinct nodes, got {link}")
        return (src, dst) if src < dst else (dst, src)

    # -- partitions --------------------------------------------------------------------

    def _partition(self, group: Tuple[int, ...]) -> bool:
        key = tuple(sorted(set(group)))
        if key in self._partitions:
            return False
        others = [node for node in range(self.network.num_nodes) if node not in set(key)]
        cut = tuple((a, b) for a in key for b in others)
        if not cut:
            raise ValueError(f"partition group {group} does not split the network")
        channel = self.network.channel
        for a, b in cut:
            channel.block_link(a, b, symmetric=True)
        self._partitions[key] = cut
        self._condition_began()
        return True

    def _heal(self, group: Tuple[int, ...]) -> bool:
        key = tuple(sorted(set(group)))
        cut = self._partitions.pop(key, None)
        if cut is None:
            return False
        channel = self.network.channel
        for a, b in cut:
            channel.unblock_link(a, b, symmetric=True)
        self._condition_ended()
        return True

    # -- regime override ---------------------------------------------------------------

    def _set_regime(self, regime: Optional[str]) -> bool:
        if regime == self._forced_regime:
            return False
        previous = self._forced_regime
        self._forced_regime = regime
        self.network.channel.force_regime(regime)
        if previous is None and regime is not None:
            self._condition_began()
        elif previous is not None and regime is None:
            self._condition_ended()
        return True

    # -- outage accounting -------------------------------------------------------------

    def _condition_began(self) -> None:
        self._active_conditions += 1
        if self._active_conditions == 1:
            self._outage_start = self.network.sim.now

    def _condition_ended(self) -> None:
        if self._active_conditions <= 0:
            raise RuntimeError("fault bookkeeping underflow (condition ended twice)")
        self._active_conditions -= 1
        if self._active_conditions == 0 and self._outage_start is not None:
            self._windows.append((self._outage_start, self.network.sim.now))
            self._outage_start = None

    def outage_windows_until(self, until: float) -> Tuple[Tuple[float, float], ...]:
        """Closed union-outage windows, capping any still-open window at ``until``."""
        windows = list(self._windows)
        if self._outage_start is not None and until > self._outage_start:
            windows.append((self._outage_start, until))
        return tuple(windows)

    def heal_times_until(self, until: float) -> Tuple[float, ...]:
        """The instants at which the network returned to a fault-free state."""
        return tuple(end for _start, end in self.outage_windows_until(until) if end < until)
