"""Shortest-path routines, cross-checked against networkx and a heap Dijkstra."""

import heapq
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.routing.dijkstra import next_hop_table, path_length, shortest_path, shortest_path_tree
from repro.sim.topology import connectivity_graph, random_positions


LINE = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
SQUARE = {0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2}}


def test_path_on_line():
    assert shortest_path(LINE, 0, 3) == [0, 1, 2, 3]
    assert path_length(LINE, 0, 3) == 3


def test_path_to_self():
    assert shortest_path(LINE, 2, 2) == [2]
    assert path_length(LINE, 2, 2) == 0


def test_unreachable_returns_none():
    graph = {0: {1}, 1: {0}, 2: set()}
    assert shortest_path(graph, 0, 2) is None
    assert path_length(graph, 0, 2) is None


def test_square_has_two_hop_diagonal():
    assert path_length(SQUARE, 0, 3) == 2
    path = shortest_path(SQUARE, 0, 3)
    assert path[0] == 0 and path[-1] == 3 and len(path) == 3


def test_shortest_path_tree_distances():
    dist, prev = shortest_path_tree(LINE, 0)
    assert dist == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
    assert prev[3] == 2


def test_tree_tie_break_is_deterministic():
    # The documented contract behind the `repro: allow[DET002]` pragma in
    # dijkstra.py: with equal-cost predecessors (0→1→3 vs 0→2→3) the
    # lowest-id parent on the previous level wins, and repeated runs agree.
    runs = [shortest_path_tree(SQUARE, 0) for _ in range(5)]
    assert all(run == runs[0] for run in runs)
    dist, prev = runs[0]
    assert prev[3] == 1


def test_tree_unknown_source_rejected():
    with pytest.raises(KeyError):
        shortest_path_tree(LINE, 99)


def test_next_hop_table_on_line():
    table = next_hop_table(LINE, 0)
    assert table == {1: 1, 2: 1, 3: 1}
    table = next_hop_table(LINE, 2)
    assert table[0] == 1 and table[3] == 3


def test_next_hop_never_self_and_is_neighbor():
    table = next_hop_table(SQUARE, 0)
    for hop in table.values():
        assert hop != 0
        assert hop in SQUARE[0]


@given(st.integers(min_value=4, max_value=14), st.integers(min_value=0, max_value=500))
def test_path_lengths_match_networkx(num_nodes, seed):
    rng = random.Random(seed)
    positions = random_positions(num_nodes, 120.0, rng)
    graph = connectivity_graph(positions, radio_range=60.0)
    reference = nx.Graph()
    reference.add_nodes_from(graph)
    for u, neighbors in graph.items():
        for v in neighbors:
            reference.add_edge(u, v)
    lengths = dict(nx.shortest_path_length(reference, source=0))
    for destination in graph:
        ours = path_length(graph, 0, destination)
        theirs = lengths.get(destination)
        assert ours == theirs or (ours is None and theirs is None)


def test_next_hop_leads_along_a_shortest_path():
    rng = random.Random(5)
    positions = random_positions(10, 100.0, rng)
    graph = connectivity_graph(positions, radio_range=55.0)
    table = next_hop_table(graph, 0)
    for destination, hop in table.items():
        full = path_length(graph, 0, destination)
        via_hop = path_length(graph, hop, destination)
        assert via_hop == full - 1


def heap_dijkstra(graph, source):
    """The unit-cost heap Dijkstra that shortest_path_tree replaced, as a reference."""
    if source not in graph:
        raise KeyError(source)
    dist = {source: 0.0}
    prev = {source: None}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor in graph.get(node, ()):
            candidate = d + 1.0
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return dist, prev


def random_graph(rng):
    """Sparse directed graph with dangling edges and, often, several components."""
    n = rng.randint(1, 24)
    density = rng.uniform(0.02, 0.4)
    graph = {node: set() for node in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                graph[u].add(v)
                if rng.random() < 0.8:
                    graph[v].add(u)
        if rng.random() < 0.15:
            graph[u].add(n + rng.randrange(3))  # an edge to a node with no entry
    return graph


def reversed_sets(graph):
    # Same edges, each neighbour collection iterated in the opposite order.
    return {node: list(reversed(list(neighbors))) for node, neighbors in graph.items()}


def walked_first_hops(dist, prev, source):
    """The predecessor walk next_hop_table used before it shared routing_tree's."""
    table = {}
    for destination in dist:
        if destination == source:
            continue
        node = destination
        while prev[node] is not None and prev[node] != source:
            node = prev[node]
        table[destination] = node
    return table


def test_tree_matches_heap_dijkstra_in_any_set_order():
    unknown_sources = 0
    for seed in range(250):
        rng = random.Random(seed)
        graph = random_graph(rng)
        source = rng.randrange(len(graph) + 2)  # sometimes not a node of the graph
        if source not in graph:
            unknown_sources += 1
            with pytest.raises(KeyError):
                shortest_path_tree(graph, source)
            with pytest.raises(KeyError):
                heap_dijkstra(graph, source)
            continue
        expected = heap_dijkstra(graph, source)
        assert shortest_path_tree(graph, source) == expected
        assert shortest_path_tree(reversed_sets(graph), source) == expected
        assert heap_dijkstra(reversed_sets(graph), source) == expected
        first_hops = walked_first_hops(*expected, source)
        assert next_hop_table(graph, source) == first_hops
        assert next_hop_table(reversed_sets(graph), source) == first_hops
    assert unknown_sources > 0
