"""Topology generation and connectivity."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.topology import (
    Position,
    connectivity_graph,
    field_size_for,
    is_connected,
    linear_positions,
    random_positions,
)


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0


class TestLinearPositions:
    def test_count_and_spacing(self):
        positions = linear_positions(5, spacing=40)
        assert len(positions) == 5
        assert positions[1].distance_to(positions[0]) == 40
        assert positions[-1].x == 160

    def test_chain_connectivity_with_short_range(self):
        positions = linear_positions(6, spacing=40)
        graph = connectivity_graph(positions, radio_range=50)
        # Each interior node hears exactly its two neighbours.
        assert graph[0] == {1}
        assert graph[2] == {1, 3}
        assert is_connected(graph)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            linear_positions(0)
        with pytest.raises(ValueError):
            linear_positions(3, spacing=0)


class TestGridPositions:
    def test_grid_connected(self):
        positions = [Position(c * 10, r * 10) for r in range(3) for c in range(3)]
        assert is_connected(connectivity_graph(positions, radio_range=12))


class TestRandomPositions:
    def test_positions_inside_field(self):
        rng = random.Random(1)
        positions = random_positions(20, 100.0, rng)
        assert all(0 <= p.x <= 100 and 0 <= p.y <= 100 for p in positions)

    def test_connected_when_range_given(self):
        rng = random.Random(2)
        size = field_size_for(15, radio_range=50)
        positions = random_positions(15, size, rng, radio_range=50)
        assert is_connected(connectivity_graph(positions, radio_range=50))

    def test_deterministic_for_seeded_rng(self):
        assert random_positions(5, 50.0, random.Random(3)) == random_positions(5, 50.0, random.Random(3))


class TestConnectivity:
    def test_is_connected_empty_graph(self):
        assert is_connected({})

    def test_disconnected_graph(self):
        graph = {0: {1}, 1: {0}, 2: set()}
        assert not is_connected(graph)

    def test_links_are_directed_pairs(self):
        positions = linear_positions(3, spacing=10)
        graph = connectivity_graph(positions, radio_range=15)
        assert graph == {0: {1}, 1: {0, 2}, 2: {1}}

    def test_field_size_scales_with_nodes(self):
        assert field_size_for(40, 50) > field_size_for(10, 50)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=1000))
    def test_connectivity_graph_is_symmetric(self, n, seed):
        rng = random.Random(seed)
        positions = random_positions(n, 100.0, rng)
        graph = connectivity_graph(positions, radio_range=45.0)
        for node, neighbors in graph.items():
            for neighbor in neighbors:
                assert node in graph[neighbor]

    def test_against_networkx_reference(self):
        """Cross-check connectivity against networkx on a random placement."""
        import networkx as nx

        rng = random.Random(9)
        positions = random_positions(12, 120.0, rng)
        graph = connectivity_graph(positions, radio_range=50.0)
        reference = nx.Graph()
        reference.add_nodes_from(range(len(positions)))
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                if positions[i].distance_to(positions[j]) <= 50.0:
                    reference.add_edge(i, j)
        assert is_connected(graph) == nx.is_connected(reference)
        edges = {frozenset((u, v)) for u, neighbors in graph.items() for v in neighbors}
        assert edges == {frozenset(e) for e in reference.edges}
