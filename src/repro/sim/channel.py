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

Connectivity queries are served from a spatial hash grid
(:class:`repro.sim.spatial.SpatialGrid`, cell side = radio range) with
per-node neighbour sets cached until the next position update, so the
per-transmission ``in_range`` guard is a set-membership test.  The
whole graph is built in one pass that tests each nearby pair once.
Every cached set is built in ascending node-id order — the same
insertion sequence the historical brute-force scan used — so set
iteration order does not depend on which path built it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.spatial import SpatialGrid
from repro.sim.topology import Position
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

    def state(self, now: float) -> str:
        """The link state ('good' or 'bad') at time ``now``."""
        self._advance(now)
        return self._state

    def loss_probability(self, now: float, forced_state: Optional[str] = None) -> float:
        """Per-transmission loss probability at time ``now``.

        ``forced_state`` (fault injection) overrides which state's loss
        applies without disturbing the underlying chain: the state
        machine still advances and consumes the same draws, so clearing
        the override resumes the natural process exactly where it would
        have been.
        """
        self._advance(now)
        state = self._state if forced_state is None else forced_state
        return self.quality.bad_loss if state == self.BAD else self.quality.good_loss

    def transmission_succeeds(self, now: float, forced_state: Optional[str] = None) -> bool:
        """Sample one transmission attempt outcome at time ``now``.

        The outcome draw is taken *before* the state machine advances —
        the historical evaluation order of ``rng.random() >=
        loss_probability(now)`` (Python evaluates the left operand
        first), which seeded experiments depend on since both draws come
        from the same per-link stream.  ``forced_state`` overrides which
        state's loss the draw is compared against (fault injection)
        while leaving the chain's evolution — and its RNG consumption —
        untouched.
        """
        draw = self._rng.random()
        self._advance(now)
        state = self._state if forced_state is None else forced_state
        loss = self.quality.bad_loss if state == self.BAD else self.quality.good_loss
        return draw >= loss


class Channel:
    """The shared wireless medium.

    Responsibilities:

    * maintain node positions (updated by the mobility model) and the
      spatial index over them,
    * answer connectivity queries from the routing layer,
    * hold one :class:`GilbertElliottLink` per directed link and decide
      the outcome of each MAC transmission attempt,
    * report the *true* instantaneous loss probability of a link, which
      the MAC link estimator only ever sees through noisy measurements.

    The neighbour sets and connectivity graphs returned by
    :meth:`neighbors_of` / :meth:`connectivity` are cached snapshots
    owned by the channel, invalidated on the next :meth:`set_position`;
    treat them as immutable.
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
        self._qualities: Dict[Tuple[int, int], LinkQuality] = {}
        self._grid = SpatialGrid(radio_range)
        for node_id, position in enumerate(self._positions):
            self._grid.insert(node_id, position.x, position.y)
        #: node -> cached neighbour set; cleared on any position change.
        self._neighbors_cache: Dict[int, Set[int]] = {}
        self._connectivity_cache: Optional[Dict[int, Set[int]]] = None
        # Fault-injection state (repro.sim.faults).  All of it empty/None
        # in a fault-free run, in which case every query below takes the
        # exact historical code path — and the exact historical RNG
        # draws — of a channel that has never heard of faults.
        self._down_nodes: Set[int] = set()
        self._blocked_links: Dict[Tuple[int, int], int] = {}
        self._forced_regime: Optional[str] = None

    # -- positions and connectivity -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._positions)

    def position_of(self, node_id: int) -> Position:
        if not 0 <= node_id < len(self._positions):
            raise KeyError(f"unknown node {node_id}")
        return self._positions[node_id]

    def set_position(self, node_id: int, position: Position) -> None:
        """Move a node (called by the mobility model).

        Updates the spatial index incrementally and invalidates the
        cached neighbour sets / connectivity graph.
        """
        if not 0 <= node_id < len(self._positions):
            raise KeyError(f"unknown node {node_id}")
        self._positions[node_id] = position
        self._grid.move(node_id, position.x, position.y)
        if self._neighbors_cache:
            self._neighbors_cache.clear()
        self._connectivity_cache = None

    def in_range(self, src: int, dst: int) -> bool:
        """True iff ``dst`` can currently hear ``src``."""
        if src == dst:
            return False
        neighbors = self._neighbors_cache.get(src)
        if neighbors is None:
            neighbors = self._compute_neighbors(src)
        if dst in neighbors:
            return True
        # Only the miss branch pays for the id check: neighbour sets can
        # only contain valid ids, and an unknown ``dst`` must keep
        # raising (list indexing would silently alias negative ids).
        if not 0 <= dst < len(self._positions):
            raise KeyError(f"unknown node {dst}")
        return False

    def _compute_neighbors(self, node_id: int) -> Set[int]:
        # Cache-miss path only, so the id check is free on the hot path;
        # without it, list indexing would silently alias negative ids.
        if not 0 <= node_id < len(self._positions):
            raise KeyError(f"unknown node {node_id}")
        # neighbors_within builds the set in the historical brute-force
        # insertion order (ascending ids), which keeps set iteration
        # order — and so every downstream consumer — bit-identical.
        result = self._grid.neighbors_within(node_id, self._positions, self.radio_range)
        if self._down_nodes or self._blocked_links:
            result = self._filter_faulted(node_id, result)
        self._neighbors_cache[node_id] = result
        return result

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

        The returned set is a cached snapshot; treat it as immutable.
        """
        neighbors = self._neighbors_cache.get(node_id)
        if neighbors is None:
            neighbors = self._compute_neighbors(node_id)
        return neighbors

    def connectivity(self) -> Dict[int, Set[int]]:
        """Current unit-disk connectivity graph (cached snapshot).

        A stale cache is rebuilt by one whole-graph pass, which also
        fills every per-node neighbour set; the sets equal, in content
        and insertion order, what :meth:`neighbors_of` would build.
        """
        graph = self._connectivity_cache
        if graph is None:
            graph = self._grid.neighbor_graph(self._positions, self.radio_range)
            if self._down_nodes or self._blocked_links:
                for node_id, neighbors in graph.items():
                    graph[node_id] = self._filter_faulted(node_id, neighbors)
            self._neighbors_cache.update(graph)
            self._connectivity_cache = graph
        return graph

    # -- fault injection ---------------------------------------------------------------

    def _invalidate_connectivity(self) -> None:
        if self._neighbors_cache:
            self._neighbors_cache.clear()
        self._connectivity_cache = None

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
        self._invalidate_connectivity()

    def block_link(self, src: int, dst: int, symmetric: bool = True) -> None:
        """Administratively sever a link (fault injection); reference counted.

        A link blocked by both an explicit link fault and a partition
        stays severed until *both* are lifted.
        """
        self._blocked_links[(src, dst)] = self._blocked_links.get((src, dst), 0) + 1
        if symmetric:
            self._blocked_links[(dst, src)] = self._blocked_links.get((dst, src), 0) + 1
        self._invalidate_connectivity()

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
        self._invalidate_connectivity()

    def force_regime(self, state: Optional[str]) -> None:
        """Force every Gilbert–Elliott link's effective state, or restore (None).

        The override changes only which state's loss probability applies;
        each link's chain keeps evolving (and consuming draws) exactly as
        without the override, so clearing it resumes the natural process.
        """
        if state not in (None, GilbertElliottLink.GOOD, GilbertElliottLink.BAD):
            raise ValueError(f"regime must be 'good', 'bad' or None, got {state!r}")
        self._forced_regime = state

    @property
    def down_nodes(self) -> Set[int]:
        """Nodes currently removed from the graph by fault injection (a copy)."""
        return set(self._down_nodes)

    # -- link quality ----------------------------------------------------------------

    def set_link_quality(self, src: int, dst: int, quality: LinkQuality, symmetric: bool = True) -> None:
        """Override the loss model of one (or both directions of a) link."""
        self._qualities[(src, dst)] = quality
        self._links.pop((src, dst), None)
        if symmetric:
            self._qualities[(dst, src)] = quality
            self._links.pop((dst, src), None)

    def _link(self, src: int, dst: int, now: float) -> GilbertElliottLink:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            quality = self._qualities.get(key, self.default_quality)
            stream = random.Random(self._rng.getrandbits(64))
            link = GilbertElliottLink(quality, stream, start_time=now)
            self._links[key] = link
        return link

    def loss_probability(self, src: int, dst: int, now: float) -> float:
        """True per-attempt loss probability of the directed link right now.

        Returns 1.0 if the nodes are out of range (every attempt fails),
        which is how mobility-induced route breakage manifests.
        """
        if not self.in_range(src, dst):
            return 1.0
        return self._link(src, dst, now).loss_probability(now, self._forced_regime)

    def average_loss_probability(self, src: int, dst: int) -> float:
        """Long-run average loss of the directed link (ignores range)."""
        quality = self._qualities.get((src, dst), self.default_quality)
        return quality.average_loss

    def transmission_succeeds(self, src: int, dst: int, now: float) -> bool:
        """Decide the fate of a single MAC transmission attempt."""
        # Per-transmission hot path: the in_range check is inlined as a
        # membership test on the cached neighbour set (which can never
        # contain ``src`` itself, so no self-loop guard is needed).
        neighbors = self._neighbors_cache.get(src)
        if neighbors is None:
            neighbors = self._compute_neighbors(src)
        if dst not in neighbors:
            if not 0 <= dst < len(self._positions):
                raise KeyError(f"unknown node {dst}")
            return False
        return self._link(src, dst, now).transmission_succeeds(now, self._forced_regime)
