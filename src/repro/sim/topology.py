"""Node placement and connectivity helpers.

The paper evaluates JTP on two classes of topology:

* **static linear topologies** of 2–10 nodes, used to isolate the
  effect of path length (Figures 3, 4, 6, 7, 9);
* **random topologies** of 10–25 nodes in a 2-D field sized so the
  network is connected with high probability, with and without
  random-waypoint mobility (Figures 10 and 11) and the 14-node
  testbed-like scenario (Table 2).

This module produces the node positions and the distance-based
connectivity graph that the channel, routing and mobility models share.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.util.validation import require_positive


@dataclass(frozen=True)
class Position:
    """A point in the 2-D simulation field (metres)."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)


def linear_positions(num_nodes: int, spacing: float = 40.0) -> List[Position]:
    """Place ``num_nodes`` on a line, ``spacing`` metres apart.

    With a radio range slightly larger than ``spacing`` (but smaller
    than ``2 * spacing``) this yields the chain topologies of the
    paper's linear experiments, where every packet must traverse
    ``num_nodes - 1`` hops.
    """
    require_positive(num_nodes, "num_nodes")
    require_positive(spacing, "spacing")
    return [Position(i * spacing, 0.0) for i in range(num_nodes)]


def field_size_for(num_nodes: int, radio_range: float, density: float = 4.0) -> float:
    """Side length of a square field keeping a random network connected.

    The paper sets the field size "to ensure that the network is
    connected with high probability".  A standard heuristic is to keep
    the expected number of neighbours per node around ``density`` times
    the critical value; here we size the field so each node covers
    roughly ``density / num_nodes`` of the field area.
    """
    require_positive(num_nodes, "num_nodes")
    require_positive(radio_range, "radio_range")
    require_positive(density, "density")
    area = num_nodes * math.pi * radio_range ** 2 / density
    return math.sqrt(area)


def random_positions(
    num_nodes: int,
    field_size: float,
    rng: random.Random,
    radio_range: float = 0.0,
    max_tries: int = 400,
) -> List[Position]:
    """Uniformly random positions in a ``field_size`` × ``field_size`` square.

    If ``radio_range`` is positive, the placement is re-sampled up to
    ``max_tries`` times until the resulting unit-disk graph is
    connected; the last sample is returned if no connected placement is
    found (callers that require connectivity should check explicitly).
    """
    require_positive(num_nodes, "num_nodes")
    require_positive(field_size, "field_size")
    positions: List[Position] = []
    for _ in range(max_tries):
        positions = [
            Position(rng.uniform(0.0, field_size), rng.uniform(0.0, field_size))
            for _ in range(num_nodes)
        ]
        if radio_range <= 0:
            return positions
        if is_connected(connectivity_graph(positions, radio_range)):
            return positions
    return positions


def connectivity_graph(positions: Sequence[Position], radio_range: float) -> Dict[int, Set[int]]:
    """Unit-disk connectivity: node ``i`` hears node ``j`` iff within range."""
    require_positive(radio_range, "radio_range")
    graph: Dict[int, Set[int]] = {i: set() for i in range(len(positions))}
    # positions[i].distance_to(positions[j]) inlined: the channel
    # rebuilds this graph at every routing refresh under mobility.
    xs = [position.x for position in positions]
    ys = [position.y for position in positions]
    hypot = math.hypot
    for i, mine in graph.items():
        x, y = xs[i], ys[i]
        for j in range(i + 1, len(xs)):
            if hypot(x - xs[j], y - ys[j]) <= radio_range:
                mine.add(j)
                graph[j].add(i)
    return graph


def is_connected(graph: Dict[int, Set[int]]) -> bool:
    """True iff the undirected graph has a single connected component."""
    if not graph:
        return True
    start = next(iter(graph))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        # repro: allow[DET002] visit order cannot change the reachable-node count
        for neighbor in graph[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == len(graph)

