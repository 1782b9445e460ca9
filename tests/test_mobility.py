"""Random-waypoint mobility."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import mobile_scenario
from repro.sim.channel import Channel, LinkQuality
from repro.sim.engine import Simulator
from repro.sim.mobility import RandomWaypointMobility, StaticMobility
from repro.sim.topology import Position, linear_positions, random_positions


def _make_channel(num_nodes=5, field=200.0, seed=0):
    rng = random.Random(seed)
    positions = random_positions(num_nodes, field, rng)
    return Channel(positions, radio_range=60.0, rng=random.Random(seed + 1),
                   default_quality=LinkQuality.perfect())


def test_static_mobility_does_nothing():
    sim = Simulator()
    StaticMobility().start(sim)
    assert sim.pending_events == 0
    assert StaticMobility().describe() == "static"


def test_nodes_move_over_time():
    sim = Simulator()
    channel = _make_channel()
    before = [channel.position_of(i) for i in range(channel.num_nodes)]
    mobility = RandomWaypointMobility(channel, random.Random(3), speed=5.0,
                                      mean_pause=1.0, field_size=200.0)
    mobility.start(sim)
    sim.run(until=300.0)
    after = [channel.position_of(i) for i in range(channel.num_nodes)]
    moved = sum(1 for b, a in zip(before, after, strict=True) if b != a)
    assert moved >= channel.num_nodes - 1


def test_positions_stay_in_field():
    sim = Simulator()
    channel = _make_channel(field=100.0)
    mobility = RandomWaypointMobility(channel, random.Random(5), speed=10.0,
                                      mean_pause=0.5, field_size=100.0)
    mobility.start(sim)
    sim.run(until=500.0)
    for i in range(channel.num_nodes):
        position = channel.position_of(i)
        assert 0.0 <= position.x <= 100.0
        assert 0.0 <= position.y <= 100.0


def test_slow_nodes_move_less_than_fast_nodes():
    def total_displacement(speed, seed=11):
        sim = Simulator()
        channel = Channel(linear_positions(4, 40), radio_range=50.0,
                          rng=random.Random(0), default_quality=LinkQuality.perfect())
        before = [channel.position_of(i) for i in range(4)]
        mobility = RandomWaypointMobility(channel, random.Random(seed), speed=speed,
                                          mean_pause=10.0, field_size=200.0)
        mobility.start(sim)
        sim.run(until=200.0)
        return sum(before[i].distance_to(channel.position_of(i)) for i in range(4))

    assert total_displacement(5.0) > total_displacement(0.1)


def test_describe_mentions_speed():
    channel = _make_channel()
    mobility = RandomWaypointMobility(channel, random.Random(1), speed=2.5)
    assert "2.5" in mobility.describe()


class PerStepWaypoint:
    """Random waypoint with one engine event per step.

    The reference for :class:`RandomWaypointMobility`: the same model,
    RNG draws and float expressions, but every step is an event that
    moves the node with ``Channel.set_position``.
    """

    def __init__(self, channel, rng, speed, mean_leg_distance=47.0, mean_pause=100.0,
                 field_size=200.0, update_interval=1.0):
        self.channel = channel
        self._rng = rng
        self.speed = speed
        self.mean_leg_distance = mean_leg_distance
        self.mean_pause = mean_pause
        self.field_size = field_size
        self.update_interval = update_interval
        self._targets = [None] * channel.num_nodes
        self._sim = None

    def start(self, sim):
        self._sim = sim
        for node_id in range(self.channel.num_nodes):
            sim.schedule(self._sample_pause(), self._begin_leg, node_id)

    def _sample_pause(self):
        if self.mean_pause == 0:
            return 0.0
        return self._rng.expovariate(1.0 / self.mean_pause)

    def _clip(self, value):
        return max(0.0, min(self.field_size, value))

    def _begin_leg(self, node_id):
        origin = self.channel.position_of(node_id)
        angle = self._rng.uniform(0.0, 2.0 * math.pi)
        distance = self._rng.expovariate(1.0 / self.mean_leg_distance)
        self._targets[node_id] = Position(
            self._clip(origin.x + distance * math.cos(angle)),
            self._clip(origin.y + distance * math.sin(angle)),
        )
        self._sim.schedule(self.update_interval, self._step, node_id)

    def _step(self, node_id):
        target = self._targets[node_id]
        current = self.channel.position_of(node_id)
        distance = self.speed * self.update_interval
        total = current.distance_to(target)
        if total <= distance or total == 0.0:
            new_position = target
        else:
            frac = distance / total
            new_position = Position(current.x + (target.x - current.x) * frac,
                                    current.y + (target.y - current.y) * frac)
        self.channel.set_position(node_id, new_position)
        if new_position == target:
            self._sim.schedule(self._sample_pause(), self._begin_leg, node_id)
        else:
            self._sim.schedule(self.update_interval, self._step, node_id)


def _pair(model, seed, legs=None, **kwargs):
    """A simulator and channel moved by ``model``; ``legs`` collects
    ``(time, node)`` of every leg start."""
    sim = Simulator()
    channel = _make_channel(num_nodes=6)
    mobility = model(channel, random.Random(seed), field_size=200.0, **kwargs)
    if legs is not None:
        begin_leg = mobility._begin_leg

        def recorded(node_id):
            legs.append((sim.now, node_id))
            begin_leg(node_id)

        mobility._begin_leg = recorded
    mobility.start(sim)
    return sim, channel


def _positions(channel):
    return [channel.position_of(i) for i in range(channel.num_nodes)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((0.1, 1.0, 5.0, 13.7)),
    st.sampled_from((0.0, 1.0, 10.0, 100.0)),
    st.sampled_from((1.0, 0.1, 0.3)),
    st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=12),
)
def test_positions_match_the_per_step_reference(seed, speed, mean_pause, update_interval, read_times):
    # Leg start times are last-step times plus a pause, so they also pin
    # the step-time float accumulation, which reads between steps cannot.
    kwargs = {"speed": speed, "mean_pause": mean_pause, "update_interval": update_interval}
    lazy_legs, ref_legs = [], []
    lazy_sim, lazy = _pair(RandomWaypointMobility, seed, lazy_legs, **kwargs)
    ref_sim, ref = _pair(PerStepWaypoint, seed, ref_legs, **kwargs)
    for t in sorted(read_times):
        lazy_sim.run(until=t)
        ref_sim.run(until=t)
        assert _positions(lazy) == _positions(ref)
        lazy_graph, ref_graph = lazy.connectivity(), ref.connectivity()
        assert [list(lazy_graph[i]) for i in lazy_graph] == [list(ref_graph[i]) for i in ref_graph]
        assert lazy_legs == ref_legs
    assert lazy_sim.events_processed <= ref_sim.events_processed


def test_a_step_is_visible_to_reads_at_its_own_time():
    # With no pauses every leg starts at 0.0 or at an earlier leg's last
    # step, so every step lands on an integer time shared with the reads
    # below.  The reads are scheduled first: they fire before any
    # same-time mobility event, and still see that time's step.
    sim, channel = _pair(RandomWaypointMobility, 4, speed=3.0, mean_pause=0.0)
    read_times = [5.0 * k for k in range(1, 13)]
    seen = {}
    for t in read_times:
        sim.schedule_at(t, lambda: seen.setdefault(sim.now, _positions(channel)))
    sim.run(until=read_times[-1])
    assert sorted(seen) == read_times
    ref_sim, ref = _pair(PerStepWaypoint, 4, speed=3.0, mean_pause=0.0)
    for t in read_times:
        ref_sim.run(until=t - 0.5)
        before = _positions(ref)
        ref_sim.run(until=t)  # fires every event at t, steps included
        assert seen[t] == _positions(ref)
        assert seen[t] != before, "every node steps at every integer time"


def _leg(speed, start, target):
    mobility = RandomWaypointMobility(_make_channel(), random.Random(0), speed=speed)
    times, xs, ys = mobility._leg(10.0, start.x, start.y, target.x, target.y)
    return list(times), [Position(x, y) for x, y in zip(xs, ys, strict=True)]


def test_leg_steps_part_of_the_way():
    assert _leg(4.0, Position(0, 0), Position(10, 0)) == (
        [11.0, 12.0, 13.0], [Position(4, 0), Position(8, 0), Position(10, 0)])


def test_leg_overshoot_lands_on_the_target():
    assert _leg(100.0, Position(0, 0), Position(1, 1)) == ([11.0], [Position(1, 1)])


def test_zero_length_leg_is_one_step():
    assert _leg(5.0, Position(2, 2), Position(2, 2)) == ([11.0], [Position(2, 2)])


def test_figure11_cell_runs_one_event_per_leg_boundary():
    # Paper-default figure 11 cell at 0.1 m/s.  With an event per step
    # this cell ran 17,346 events; its metrics did not change.
    result = mobile_scenario(num_nodes=15, protocol="jtp", speed=0.1, num_flows=5,
                             transfer_bytes=80_000.0, duration=1200.0, seed=0)
    assert result.network.sim.events_processed == 3079
