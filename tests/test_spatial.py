"""Spatial hash grid and channel range tests: exactness against brute force.

The grid and the channel's stale-graph pair check are pure
accelerators: every query must return exactly what the O(n²) scan
returns, including nodes *exactly at* ``radio_range`` and across
arbitrary mobility updates.  The property tests drive both
implementations side by side over random placements and moves.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.channel import Channel, LinkQuality
from repro.sim.spatial import SpatialGrid
from repro.sim.topology import Position, connectivity_graph, random_positions


def brute_neighbors(positions, node_id, radio_range):
    me = positions[node_id]
    return {
        other
        for other, position in enumerate(positions)
        if other != node_id and position.distance_to(me) <= radio_range
    }


def brute_graph(positions, radio_range):
    return {i: brute_neighbors(positions, i, radio_range) for i in range(len(positions))}


def grid_graph(positions, radio_range):
    grid = SpatialGrid(radio_range)
    for node_id, position in enumerate(positions):
        grid.insert(node_id, position.x, position.y)
    return {node_id: grid.neighbors_within(node_id, positions, radio_range) for node_id in range(len(positions))}


class TestSpatialGrid:
    def test_rejects_non_positive_cell(self):
        with pytest.raises(ValueError):
            SpatialGrid(0.0)

    def test_insert_buckets_by_cell(self):
        grid = SpatialGrid(10.0)
        grid.insert(0, 1.0, 1.0)
        grid.insert(1, 2.0, 2.0)
        grid.insert(2, 100.0, 100.0)
        assert grid.near(0.0, 0.0) == [0, 1]
        assert grid.near(101.0, 101.0) == [2]

    def test_near_is_sorted_ascending(self):
        grid = SpatialGrid(50.0)
        for node_id in (5, 3, 9, 1, 7):
            grid.insert(node_id, 10.0, 10.0)
        assert grid.near(10.0, 10.0) == [1, 3, 5, 7, 9]

    def test_negative_coordinates(self):
        grid = SpatialGrid(10.0)
        grid.insert(0, -5.0, -5.0)
        grid.insert(1, -14.9, -5.0)
        assert 1 in grid.near(-5.0, -5.0)

    def test_candidates_cover_everything_within_cell_size(self):
        rng = random.Random(4)
        grid = SpatialGrid(25.0)
        points = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(120)]
        for node_id, (x, y) in enumerate(points):
            grid.insert(node_id, x, y)
        for x, y in points:
            candidates = set(grid.near(x, y))
            for other, (ox, oy) in enumerate(points):
                if ((x - ox) ** 2 + (y - oy) ** 2) ** 0.5 <= 25.0:
                    assert other in candidates


class TestChannelGridMatchesBruteForce:
    RANGE = 50.0

    def _channel(self, positions):
        return Channel(positions, radio_range=self.RANGE, rng=random.Random(0),
                       default_quality=LinkQuality.perfect())

    def test_node_exactly_at_radio_range_is_a_neighbor(self):
        channel = self._channel([Position(0.0, 0.0), Position(self.RANGE, 0.0)])
        assert channel.neighbors_of(0) == {1}
        assert channel.in_range(0, 1) and channel.in_range(1, 0)

    def test_node_just_beyond_radio_range_is_not(self):
        beyond = self.RANGE * (1.0 + 1e-12)
        channel = self._channel([Position(0.0, 0.0), Position(beyond, 0.0)])
        assert channel.neighbors_of(0) == set()
        assert not channel.in_range(0, 1)

    def test_boundary_nodes_in_different_grid_cells(self):
        # Exactly at range, straddling a cell boundary diagonally.
        channel = self._channel([
            Position(self.RANGE - 1e-9, self.RANGE - 1e-9),
            Position(self.RANGE + 1.0, self.RANGE + 1.0),
            Position(2.0 * self.RANGE, 2.0 * self.RANGE),
        ])
        positions = [channel.position_of(i) for i in range(3)]
        for node in range(3):
            assert channel.neighbors_of(node) == brute_neighbors(positions, node, self.RANGE)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=40),
    )
    def test_neighbors_and_connectivity_match_across_mobility(self, n, seed, num_moves):
        rng = random.Random(seed)
        positions = random_positions(n, 150.0, rng)
        channel = self._channel(positions)
        # Interleave position updates with queries, so the graph is
        # rebuilt after every kind of move.
        for move in range(num_moves):
            node = rng.randrange(n)
            # Mix smooth steps (usually same cell) with long jumps, and
            # land some nodes exactly on multiples of the radio range.
            kind = rng.random()
            if kind < 0.4:
                old = channel.position_of(node)
                new = Position(old.x + rng.uniform(-2, 2), old.y + rng.uniform(-2, 2))
            elif kind < 0.8:
                new = Position(rng.uniform(0, 150.0), rng.uniform(0, 150.0))
            else:
                new = Position(self.RANGE * rng.randrange(4), self.RANGE * rng.randrange(4))
            channel.set_position(node, new)
            if move % 5 == 0:
                query = rng.randrange(n)
                current = [channel.position_of(i) for i in range(n)]
                assert channel.neighbors_of(query) == brute_neighbors(current, query, self.RANGE)
        current = [channel.position_of(i) for i in range(n)]
        assert channel.connectivity() == brute_graph(current, self.RANGE)
        for node in range(n):
            assert channel.neighbors_of(node) == brute_neighbors(current, node, self.RANGE)


class TestConnectivityGraphGridPath:
    """A graph built from ``SpatialGrid.neighbors_within`` equals the
    pair scan of ``connectivity_graph``, set iteration order included."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=5.0, max_value=80.0))
    def test_grid_connectivity_graph_matches_pair_scan(self, seed, radio_range):
        rng = random.Random(seed)
        positions = random_positions(40, 200.0, rng)
        assert grid_graph(positions, radio_range) == connectivity_graph(positions, radio_range)

    def test_set_iteration_order_identical_between_paths(self):
        rng = random.Random(7)
        positions = random_positions(40, 250.0, rng)
        grid = grid_graph(positions, 60.0)
        pairs = connectivity_graph(positions, 60.0)
        for node in pairs:
            assert list(grid[node]) == list(pairs[node])


def _border_positions(rng, n, radio_range):
    """Lattice points on cell borders, some nudged by one ulp, so pairs
    sit exactly at, just inside and just beyond ``radio_range``."""
    positions = []
    for _ in range(n):
        x = radio_range * rng.randrange(5)
        y = radio_range * rng.randrange(5)
        nudge = rng.choice((0, 0, 1, -1))
        if nudge:
            x = math.nextafter(x, math.inf if nudge > 0 else -math.inf)
        positions.append(Position(x, y))
    return positions


class TestWholeGraphPass:
    """``Channel.connectivity`` builds the whole graph in one pass
    (``connectivity_graph``).  While that graph is stale, ``in_range``
    and ``transmission_succeeds`` test each pair directly instead; the
    per-node sets those pair checks give must equal the graph's sets,
    set iteration order included."""

    RANGE = 50.0

    def _channel(self, positions):
        return Channel(positions, radio_range=self.RANGE, rng=random.Random(0),
                       default_quality=LinkQuality.perfect())

    def _assert_matches_per_node(self, channel):
        nodes = range(channel.num_nodes)
        assert channel._graph is None, "the pair check runs only on a stale graph"
        heard = {src: {dst for dst in nodes if channel.in_range(src, dst)} for src in nodes}
        delivered = {src: {dst for dst in nodes if channel.transmission_succeeds(src, dst, now=0.0)}
                     for src in nodes}
        assert channel._graph is None, "range tests must not rebuild the graph"
        graph = channel.connectivity()
        assert list(graph) == list(nodes)
        for node in nodes:
            assert list(graph[node]) == list(heard[node]) == list(delivered[node])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_random_fields_match_per_node_sets(self, n, seed):
        rng = random.Random(seed)
        channel = self._channel(random_positions(n, rng.choice((60.0, 150.0, 400.0)), rng))
        self._assert_matches_per_node(channel)
        for _ in range(10):
            channel.set_position(rng.randrange(n), Position(rng.uniform(-20, 170), rng.uniform(-20, 170)))
        self._assert_matches_per_node(channel)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_cell_borders_and_exact_range_match_per_node_sets(self, n, seed):
        rng = random.Random(seed)
        self._assert_matches_per_node(self._channel(_border_positions(rng, n, self.RANGE)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
    def test_down_nodes_and_blocked_links_match_per_node_sets(self, n, seed):
        rng = random.Random(seed)
        channel = self._channel(random_positions(n, 120.0, rng))
        downed = rng.sample(range(n), rng.randrange(n // 3 + 1))
        for node in downed:
            channel.set_node_down(node, True)
        for _ in range(rng.randrange(2 * n)):
            src, dst = rng.sample(range(n), 2)
            channel.block_link(src, dst, symmetric=rng.random() < 0.5)
        self._assert_matches_per_node(channel)
        assert not any(channel.connectivity()[node] for node in downed)

    def test_grid_pass_equals_neighbors_within(self):
        rng = random.Random(3)
        positions = _border_positions(rng, 30, self.RANGE) + random_positions(30, 200.0, rng)
        grid = grid_graph(positions, self.RANGE)
        graph = connectivity_graph(positions, self.RANGE)
        for node_id in range(len(positions)):
            assert list(graph[node_id]) == list(grid[node_id])
            assert graph[node_id] == brute_neighbors(positions, node_id, self.RANGE)

    def test_pass_fills_the_per_node_cache(self):
        channel = self._channel(random_positions(12, 100.0, random.Random(5)))
        graph = channel.connectivity()
        for node in range(channel.num_nodes):
            assert channel.neighbors_of(node) is graph[node]
