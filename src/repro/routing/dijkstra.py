"""Shortest-path computation on connectivity graphs.

The graphs handled here are adjacency mappings ``{node: set(neighbors)}``
as produced by :func:`repro.sim.topology.connectivity_graph` or
:meth:`repro.sim.channel.Channel.connectivity` (the link-state
protocol's shared view).  All links have unit cost (hop
count), matching the paper's use of hop counts for the remaining-path
length in the loss-tolerance computation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple


Graph = Mapping[int, Set[int]]


def shortest_path_tree(graph: Graph, source: int) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
    """Hop-count shortest paths from ``source``: (distance, predecessor) maps.

    A level-ordered breadth-first search: each level is expanded in
    ascending node id and ``prev[v]`` is set when ``v`` is first
    discovered.  That is exactly what Dijkstra with unit costs does —
    its heap pops ``(distance, node)`` in ascending order — so the
    predecessor of every node is its lowest-id neighbour on the
    previous level.  Neither map depends on the iteration order of the
    neighbour sets.  Unreachable nodes are absent from both maps.
    """
    if source not in graph:
        raise KeyError(f"source {source} not in graph")
    dist: Dict[int, float] = {source: 0.0}
    prev: Dict[int, Optional[int]] = {source: None}
    level = [source]
    depth = 0.0
    while level:
        depth += 1.0
        found: List[int] = []
        for node in level:
            # repro: allow[DET002] a node's dist and prev are fixed by the first, lowest-id parent on the previous level; the set's iteration order only orders `found`, which is sorted below
            for neighbor in graph.get(node, ()):  # tolerate dangling edges
                if neighbor not in dist:
                    dist[neighbor] = depth
                    prev[neighbor] = node
                    found.append(neighbor)
        found.sort()
        level = found
    return dist, prev


def routing_tree(graph: Graph, source: int) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Distances and first hops from ``source`` over one shortest-path tree.

    The first-hop map sends every reachable destination other than
    ``source`` to the neighbour of ``source`` its shortest path starts
    with.
    """
    dist, prev = shortest_path_tree(graph, source)
    first_hop: Dict[int, int] = {}
    # prev is filled in discovery order, so a parent always precedes its
    # children and its first hop is already known.
    for destination, parent in prev.items():
        if parent is None:
            continue
        first_hop[destination] = destination if parent == source else first_hop[parent]
    return dist, first_hop

