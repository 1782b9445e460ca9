"""Wireless channel model.

The paper's linear-topology experiments state: *"To capture the varying
quality of wireless links, the value of the average pathloss of each
link alternates between a good state (low loss) and a bad state (high
loss).  Each link is in bad state approximately 10% of the time.  The
average duration of the bad period is 3 seconds."*

That is a textbook Gilbert–Elliott two-state model, which this module
implements per directed link.  The channel also answers connectivity
queries (who can hear whom, given positions and radio range), which the
routing protocol and the MAC use.

Positions change lazily.  The mobility model hands each moving node's
precomputed path (step times and positions) to :meth:`Channel.move_along`;
no event runs per step.  Every read — a transmission attempt,
``in_range``, ``neighbors_of``, ``connectivity``, ``position_of`` —
first applies the steps that are due by its time, so a step at time
``t`` is visible to every read at time ``>= t``.  While no node moves
that check is one float compare.

The channel caches one connectivity graph, built by
:func:`repro.sim.topology.connectivity_graph` (each set in ascending-id
insertion order, the order the historical brute-force scan used) and
dropped at the next position, down-node or blocked-link change.  While
it is fresh, a transmission's range test is a set lookup in it; while it
is stale, the test is one exact distance check of the pair, which gives
the answer the rebuilt graph would give.  Under mobility that is what
keeps the graph from being rebuilt after every step: only the routing
refresh rebuilds it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.engine import Simulator
from repro.sim.topology import Position, connectivity_graph
from repro.util.validation import require_positive, require_probability


@dataclass
class LinkQuality:
    """Loss parameters for the two Gilbert–Elliott states of a link."""

    good_loss: float = 0.02
    bad_loss: float = 0.5
    bad_fraction: float = 0.1
    mean_bad_duration: float = 3.0

    def __post_init__(self) -> None:
        require_probability(self.good_loss, "good_loss")
        require_probability(self.bad_loss, "bad_loss")
        require_probability(self.bad_fraction, "bad_fraction")
        require_positive(self.mean_bad_duration, "mean_bad_duration")
        if self.bad_fraction >= 1.0:
            raise ValueError("bad_fraction must be < 1")

    @property
    def mean_good_duration(self) -> float:
        """Mean dwell time in the good state implied by the bad fraction."""
        if self.bad_fraction == 0.0:
            return math.inf
        return self.mean_bad_duration * (1.0 - self.bad_fraction) / self.bad_fraction

    @property
    def average_loss(self) -> float:
        """Long-run average per-transmission loss probability."""
        return (1.0 - self.bad_fraction) * self.good_loss + self.bad_fraction * self.bad_loss

    @classmethod
    def perfect(cls) -> "LinkQuality":
        """A loss-free link (useful in unit tests)."""
        return cls(good_loss=0.0, bad_loss=0.0, bad_fraction=0.0)

    @classmethod
    def stable(cls, loss: float = 0.01) -> "LinkQuality":
        """A stable, low-loss link like the indoor testbed of Table 2."""
        return cls(good_loss=loss, bad_loss=loss, bad_fraction=0.0)


class GilbertElliottLink:
    """Per-link two-state loss process.

    State dwell times are exponential with the configured means.  State
    transitions are evaluated lazily: the link advances its state
    machine only when queried, so idle links cost nothing.

    A link queried after a *very* long idle gap does not replay the full
    transition history: after :data:`MAX_CATCHUP_TRANSITIONS` sampled
    dwells the chain is fast-forwarded to its stationary distribution
    (one state draw plus one dwell draw from "now").  The exponential
    two-state chain mixes to stationarity long before that many
    transitions, so the distribution of what a caller observes is
    unchanged — but the number of RNG draws consumed from the link's
    stream differs from a full replay, so the cap is set high enough
    (~32 mean good/bad cycles) that the paper-scale experiments never
    trigger it; :attr:`fast_forwards` counts how often it fired.
    """

    GOOD = "good"
    BAD = "bad"

    #: Sampled transitions per query before the equilibrium fast-forward.
    MAX_CATCHUP_TRANSITIONS = 64

    def __init__(self, quality: LinkQuality, rng: random.Random, start_time: float = 0.0) -> None:
        self.quality = quality
        self._rng = rng
        self._state = self.GOOD
        if quality.bad_fraction > 0 and rng.random() < quality.bad_fraction:
            self._state = self.BAD
        self._state_until = start_time + self._sample_dwell(self._state)
        self.fast_forwards = 0

    def _sample_dwell(self, state: str) -> float:
        mean = (
            self.quality.mean_bad_duration
            if state == self.BAD
            else self.quality.mean_good_duration
        )
        if math.isinf(mean):
            return math.inf
        return self._rng.expovariate(1.0 / mean)

    def _advance(self, now: float) -> None:
        if now < self._state_until:
            return
        transitions = 0
        while now >= self._state_until:
            transitions += 1
            if transitions > self.MAX_CATCHUP_TRANSITIONS:
                self._fast_forward(now)
                return
            self._state = self.BAD if self._state == self.GOOD else self.GOOD
            self._state_until += self._sample_dwell(self._state)

    def _fast_forward(self, now: float) -> None:
        """Jump the chain to stationarity at ``now`` (long idle gaps)."""
        quality = self.quality
        self._state = self.BAD if self._rng.random() < quality.bad_fraction else self.GOOD
        self._state_until = now + self._sample_dwell(self._state)
        self.fast_forwards += 1

    def transmission_succeeds(self, now: float, forced_state: Optional[str] = None) -> bool:
        """Sample one transmission attempt outcome at time ``now``.

        The outcome draw is taken *before* the state machine advances,
        which seeded experiments depend on since both draws come from
        the same per-link stream.  ``forced_state`` overrides which
        state's loss the draw is compared against (fault injection)
        while leaving the chain's evolution — and its RNG consumption —
        untouched.
        """
        draw = self._rng.random()
        self._advance(now)
        state = self._state if forced_state is None else forced_state
        loss = self.quality.bad_loss if state == self.BAD else self.quality.good_loss
        return draw >= loss


class _Path:
    """A node's steps along :meth:`Channel.move_along`; ``times[done:]`` are still due."""

    __slots__ = ("times", "xs", "ys", "done")

    def __init__(self, times: Sequence[float], xs: Sequence[float], ys: Sequence[float]) -> None:
        self.times = times
        self.xs = xs
        self.ys = ys
        self.done = 0


class Channel:
    """The shared wireless medium.

    Responsibilities:

    * maintain node positions, moved by the mobility model through
      :meth:`move_along` (or directly through :meth:`set_position`),
    * answer connectivity queries from the routing layer,
    * hold one :class:`GilbertElliottLink` per directed link and decide
      the outcome of each MAC transmission attempt; the MAC link
      estimator sees a link's loss only through those outcomes.

    The graph returned by :meth:`connectivity` (and the sets returned by
    :meth:`neighbors_of`, which are its rows) is a cached snapshot owned
    by the channel and replaced, never mutated, after the next change;
    treat it as immutable.
    """

    def __init__(
        self,
        positions: Sequence[Position],
        radio_range: float,
        rng: random.Random,
        default_quality: Optional[LinkQuality] = None,
    ) -> None:
        self.radio_range = require_positive(radio_range, "radio_range")
        self._positions: List[Position] = list(positions)
        self._rng = rng
        self.default_quality = default_quality or LinkQuality()
        self._links: Dict[Tuple[int, int], GilbertElliottLink] = {}
        #: The connectivity graph of the current positions, or None once
        #: a position, a down node or a blocked link has changed.
        self._graph: Optional[Dict[int, Set[int]]] = None
        #: node -> the path it is moving along (see :meth:`move_along`).
        self._paths: Dict[int, _Path] = {}
        #: The earliest step time of any path; inf while no node moves,
        #: so a static network pays one float compare per read.
        self._due = math.inf
        #: Supplies ``now`` to reads that are not given one.
        self._clock: Optional[Simulator] = None
        # Fault-injection state (repro.sim.faults).  All of it empty/None
        # in a fault-free run, in which case every query below takes the
        # exact historical code path — and the exact historical RNG
        # draws — of a channel that has never heard of faults.
        self._down_nodes: Set[int] = set()
        self._blocked_links: Dict[Tuple[int, int], int] = {}
        self._forced_regime: Optional[str] = None

    # -- positions and movement -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._positions)

    def position_of(self, node_id: int) -> Position:
        if not 0 <= node_id < len(self._positions):
            raise KeyError(f"unknown node {node_id}")
        self._sync()
        return self._positions[node_id]

    def set_position(self, node_id: int, position: Position) -> None:
        """Move a node now and invalidate the cached connectivity graph.

        A node still on a :meth:`move_along` path is put back on it at
        the path's next due step.
        """
        if not 0 <= node_id < len(self._positions):
            raise KeyError(f"unknown node {node_id}")
        self._positions[node_id] = position
        self._graph = None

    def move_along(
        self,
        node_id: int,
        clock: Simulator,
        times: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> None:
        """Move ``node_id`` to ``(xs[i], ys[i])`` at ``times[i]`` (ascending).

        Nothing is scheduled.  Every read applies the steps that are due
        first: by the read's ``now``, or by ``clock.now`` for reads that
        take no time.  So a step at time ``t`` is visible to every read
        at time ``>= t``.  Replaces the node's previous path, if any.
        """
        if not 0 <= node_id < len(self._positions):
            raise KeyError(f"unknown node {node_id}")
        self._clock = clock
        self._paths[node_id] = _Path(times, xs, ys)
        if times[0] < self._due:
            self._due = times[0]

    def _sync(self) -> None:
        """Apply the path steps due by the clock (reads that take no time)."""
        clock = self._clock
        if clock is not None and clock.now >= self._due:
            self._catch_up(clock.now)

    def _catch_up(self, now: float) -> None:
        """Put every moving node at its last step due by ``now``."""
        due = math.inf
        finished: List[int] = []
        for node_id, path in self._paths.items():
            times = path.times
            done = path.done
            if times[done] <= now:
                done = bisect_right(times, now, done)
                self.set_position(node_id, Position(path.xs[done - 1], path.ys[done - 1]))
                if done == len(times):
                    finished.append(node_id)
                    continue
                path.done = done
            if times[done] < due:
                due = times[done]
        for node_id in finished:
            del self._paths[node_id]
        self._due = due

    # -- connectivity ---------------------------------------------------------------

    def in_range(self, src: int, dst: int) -> bool:
        """True iff ``dst`` can currently hear ``src``."""
        self._sync()
        graph = self._graph
        if graph is None:
            return self._hears(src, dst)
        if dst in graph[src]:
            return True
        # Only the miss branch pays for the id check: graph rows can
        # only contain valid ids, and an unknown ``dst`` must keep
        # raising (list indexing would silently alias negative ids).
        if not 0 <= dst < len(self._positions):
            raise KeyError(f"unknown node {dst}")
        return False

    def _hears(self, src: int, dst: int) -> bool:
        """The range test of one pair, for when the cached graph is stale.

        It is ``dst in connectivity()[src]`` without building the
        graph: one ``distance_to`` test, and the down-node and
        blocked-link filter of :meth:`_filter_faulted`.  The pair scan of
        :func:`~repro.sim.topology.connectivity_graph` takes the
        coordinate differences from the lower id instead; IEEE
        subtraction is exactly antisymmetric and ``hypot`` ignores
        signs, so both orientations give the same bits.
        """
        positions = self._positions
        if not 0 <= src < len(positions):
            raise KeyError(f"unknown node {src}")
        if not 0 <= dst < len(positions):
            raise KeyError(f"unknown node {dst}")
        if src == dst:
            return False
        if self._down_nodes or self._blocked_links:
            down = self._down_nodes
            blocked = self._blocked_links
            if src in down or dst in down or (src, dst) in blocked or (dst, src) in blocked:
                return False
        return positions[dst].distance_to(positions[src]) <= self.radio_range

    def _filter_faulted(self, node_id: int, neighbors: Set[int]) -> Set[int]:
        """Drop down nodes and blocked links from a freshly computed neighbour set.

        Rebuilds the set in ascending-id insertion order so its
        iteration order stays identical to the unfiltered construction.
        """
        if node_id in self._down_nodes:
            return set()
        down = self._down_nodes
        blocked = self._blocked_links
        filtered: Set[int] = set()
        for other in sorted(neighbors):
            if other in down or (node_id, other) in blocked or (other, node_id) in blocked:
                continue
            filtered.add(other)
        return filtered

    def neighbors_of(self, node_id: int) -> Set[int]:
        """All nodes currently within radio range of ``node_id``.

        The returned set is a row of the cached graph; treat it as immutable.
        """
        return self.connectivity()[node_id]

    def connectivity(self) -> Dict[int, Set[int]]:
        """Current unit-disk connectivity graph (cached snapshot).

        A stale cache is rebuilt by
        :func:`~repro.sim.topology.connectivity_graph`, whose sets hold
        their members in ascending-id insertion order.
        """
        self._sync()
        graph = self._graph
        if graph is None:
            graph = connectivity_graph(self._positions, self.radio_range)
            if self._down_nodes or self._blocked_links:
                for node_id, neighbors in graph.items():
                    graph[node_id] = self._filter_faulted(node_id, neighbors)
            self._graph = graph
        return graph

    # -- fault injection ---------------------------------------------------------------

    def set_node_down(self, node_id: int, down: bool) -> None:
        """Remove a node from (or restore it to) the connectivity graph.

        A down node hears nothing and is heard by nobody; every
        transmission attempt towards it fails.  Used by the fault
        injector for crashed and paused nodes.
        """
        if not 0 <= node_id < len(self._positions):
            raise KeyError(f"unknown node {node_id}")
        if down:
            if node_id in self._down_nodes:
                return
            self._down_nodes.add(node_id)
        else:
            if node_id not in self._down_nodes:
                return
            self._down_nodes.discard(node_id)
        self._graph = None

    def block_link(self, src: int, dst: int, symmetric: bool = True) -> None:
        """Administratively sever a link (fault injection); reference counted.

        A link blocked by both an explicit link fault and a partition
        stays severed until *both* are lifted.
        """
        self._blocked_links[(src, dst)] = self._blocked_links.get((src, dst), 0) + 1
        if symmetric:
            self._blocked_links[(dst, src)] = self._blocked_links.get((dst, src), 0) + 1
        self._graph = None

    def unblock_link(self, src: int, dst: int, symmetric: bool = True) -> None:
        """Lift one :meth:`block_link` reference; raises if the link is not blocked."""
        for key in ((src, dst), (dst, src)) if symmetric else ((src, dst),):
            count = self._blocked_links.get(key)
            if count is None:
                raise ValueError(f"link {key} is not blocked")
            if count == 1:
                del self._blocked_links[key]
            else:
                self._blocked_links[key] = count - 1
        self._graph = None

    def force_regime(self, state: Optional[str]) -> None:
        """Force every Gilbert–Elliott link's effective state, or restore (None).

        The override changes only which state's loss probability applies;
        each link's chain keeps evolving (and consuming draws) exactly as
        without the override, so clearing it resumes the natural process.
        """
        if state not in (None, GilbertElliottLink.GOOD, GilbertElliottLink.BAD):
            raise ValueError(f"regime must be 'good', 'bad' or None, got {state!r}")
        self._forced_regime = state

    # -- link quality ----------------------------------------------------------------

    def _link(self, src: int, dst: int, now: float) -> GilbertElliottLink:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            stream = random.Random(self._rng.getrandbits(64))
            link = GilbertElliottLink(self.default_quality, stream, start_time=now)
            self._links[key] = link
        return link

    def average_loss_probability(self, src: int, dst: int) -> float:
        """Long-run average loss of the directed link (ignores range)."""
        return self.default_quality.average_loss

    def transmission_succeeds(self, src: int, dst: int, now: float) -> bool:
        """Decide the fate of a single MAC transmission attempt."""
        # Per-transmission hot path: in_range inlined, with ``now`` for
        # the clock.  Graph rows never contain their own node, so a
        # fresh graph needs no self-loop guard.
        if now >= self._due:
            self._catch_up(now)
        graph = self._graph
        if graph is None:
            if not self._hears(src, dst):
                return False
        elif dst not in graph[src]:
            if not 0 <= dst < len(self._positions):
                raise KeyError(f"unknown node {dst}")
            return False
        return self._link(src, dst, now).transmission_succeeds(now, self._forced_regime)
