"""Link-state routing: the shared, periodically refreshed view and its lazy trees."""

import random
from collections import Counter

import repro.routing.dijkstra as dijkstra
from repro.routing.dijkstra import next_hop_table, shortest_path_tree
from repro.routing.link_state import LinkStateRouting
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.mobility import RandomWaypointMobility
from repro.sim.topology import Position, linear_positions, random_positions


def build(num_nodes=5, update_period=10.0):
    sim = Simulator()
    channel = Channel(linear_positions(num_nodes, 40), radio_range=50.0,
                      rng=random.Random(0), default_quality=LinkQuality.perfect())
    routing = LinkStateRouting(channel, sim, update_period=update_period)
    return sim, channel, routing


class TestNeighborTable:
    """A node's neighbour table is its own row of the shared routing view."""

    def test_staleness_until_refresh(self):
        sim, channel, routing = build(update_period=5.0)
        routing.start()
        channel.set_position(1, Position(10_000, 0))
        # Still the old view until the periodic refresh fires.
        assert 1 in routing.view_of(0)[0]
        sim.run(until=6.0)
        assert 1 not in routing.view_of(0)[0]


class TestLinkStateRouting:
    def test_next_hop_chain(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.next_hop(0, 4) == 1
        assert routing.next_hop(3, 4) == 4
        assert routing.next_hop(2, 0) == 1

    def test_next_hop_to_self(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.next_hop(2, 2) == 2
        assert routing.hops_to(2, 2) == 0

    def test_hops_to_destination(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.hops_to(0, 4) == 4
        assert routing.hops_to(1, 4) == 3

    def test_route_full_path(self):
        sim, channel, routing = build()
        routing.start()
        assert routing.route(0, 4) == [0, 1, 2, 3, 4]

    def test_unreachable_destination(self):
        sim, channel, routing = build()
        routing.start()
        channel.set_position(4, Position(10_000, 0))
        routing.refresh_all_views()
        assert routing.next_hop(0, 4) is None
        assert not routing.is_reachable(0, 4)

    def test_view_is_the_channel_graph_at_refresh(self):
        sim, channel, routing = build()
        routing.start()
        view = routing.view_of(0)
        assert view is channel.connectivity()
        assert routing.view_of(3) is view
        assert view[0] == {1}
        assert view[2] == {1, 3}

    def test_views_lag_topology_until_refresh(self):
        sim, channel, routing = build(update_period=10.0)
        routing.start()
        channel.set_position(4, Position(10_000, 0))
        # The stale view still routes towards the departed node...
        assert routing.next_hop(0, 4) == 1
        # ...but ground truth disagrees.
        assert routing.true_hops(0, 4) is None
        sim.run(until=11.0)
        assert routing.next_hop(0, 4) is None

    def test_view_updates_counted(self):
        sim, channel, routing = build(update_period=5.0)
        routing.start()
        before = routing.view_updates
        sim.run(until=26.0)
        assert routing.view_updates >= before + 5

    def test_on_topology_change_does_not_refresh_immediately(self):
        sim, channel, routing = build()
        routing.start()
        updates = routing.view_updates
        routing.on_topology_change()
        assert routing.view_updates == updates


class TestLazyTrees:
    """Trees are built on demand: one per queried node per view, none otherwise."""

    QUERIERS = (0, 5, 9)

    def test_one_tree_per_queried_node_and_view(self, monkeypatch):
        calls = Counter()
        views = []  # keeps every view alive, so id() names one generation
        counting = [True]  # off while the test builds its own reference tables

        def counting_tree(graph, source):
            if counting[0]:
                if not any(graph is view for view in views):
                    views.append(graph)
                calls[(source, id(graph))] += 1
            return shortest_path_tree(graph, source)

        monkeypatch.setattr(dijkstra, "shortest_path_tree", counting_tree)
        sim = Simulator()
        channel = Channel(random_positions(15, 200.0, random.Random(1)), radio_range=60.0,
                          rng=random.Random(2), default_quality=LinkQuality.perfect())
        routing = LinkStateRouting(channel, sim, update_period=10.0)
        mobility = RandomWaypointMobility(channel, random.Random(3), speed=5.0, mean_pause=5.0,
                                          field_size=200.0, on_topology_change=routing.on_topology_change)
        routing.start()
        mobility.start(sim)

        def query():
            view = routing.view_of(0)
            for node in self.QUERIERS:
                counting[0] = False
                table = next_hop_table(view, node)
                counting[0] = True
                for destination in range(channel.num_nodes):
                    expected = None if destination == node else table.get(destination)
                    if destination != node:
                        assert routing.next_hop(node, destination) == expected
                    hops = routing.hops_to(node, destination)
                    assert (hops is None) == (destination != node and expected is None)
            sim.schedule(1.0, query)

        sim.schedule(0.5, query)
        sim.run(until=300.0)
        assert len(views) >= 5, "the scenario should change the view several times"
        assert max(calls.values()) == 1
        assert {source for source, _ in calls} == set(self.QUERIERS)
