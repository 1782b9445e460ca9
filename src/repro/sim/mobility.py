"""Node mobility models.

Figure 11 of the paper evaluates JTP in a mobile 15-node network using
the **random waypoint** model: each node picks a random direction,
moves an average distance of 47 m at a fixed speed (0.1, 1 or 5 m/s),
then pauses for an average of 100 s before moving again.  This module
reproduces that model, plus a trivial static model so that every
scenario can be expressed uniformly.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.topology import Position
from repro.util.validation import require_non_negative, require_positive


class StaticMobility:
    """No movement at all; provided so scenarios share a single interface."""

    def start(self, sim: Simulator) -> None:
        """Nothing to schedule for static nodes."""

    def describe(self) -> str:
        return "static"


class RandomWaypointMobility:
    """Random-waypoint movement with pauses, as in the paper's Section 6.1.2.

    Parameters
    ----------
    channel:
        The channel whose node positions are updated as nodes move.
    speed:
        Node speed in metres per second (paper: 0.1, 1, 5 m/s).
    mean_leg_distance:
        Average distance of one movement leg (paper: 47 m).
    mean_pause:
        Average pause between movements (paper: 100 s).
    field_size:
        Side of the square field; destinations are clipped to it.
    update_interval:
        How often positions are advanced along the current leg.  Smaller
        values give smoother trajectories at higher event cost.
    on_topology_change:
        Optional callback invoked after every position update so the
        routing protocol can refresh its views.
    """

    def __init__(
        self,
        channel: Channel,
        rng: random.Random,
        speed: float = 1.0,
        mean_leg_distance: float = 47.0,
        mean_pause: float = 100.0,
        field_size: float = 200.0,
        update_interval: float = 1.0,
        on_topology_change: Optional[Callable[[], None]] = None,
    ):
        self.channel = channel
        self._rng = rng
        self.speed = require_positive(speed, "speed")
        self.mean_leg_distance = require_positive(mean_leg_distance, "mean_leg_distance")
        self.mean_pause = require_non_negative(mean_pause, "mean_pause")
        self.field_size = require_positive(field_size, "field_size")
        self.update_interval = require_positive(update_interval, "update_interval")
        self.on_topology_change = on_topology_change
        self._targets: List[Optional[Position]] = [None] * channel.num_nodes
        self._sim: Optional[Simulator] = None

    def describe(self) -> str:
        return f"random-waypoint(speed={self.speed} m/s)"

    def start(self, sim: Simulator) -> None:
        """Schedule the first movement of every node."""
        self._sim = sim
        for node_id in range(self.channel.num_nodes):
            sim.schedule(self._sample_pause(), self._begin_leg, node_id)

    # -- internal ----------------------------------------------------------------

    def _sample_pause(self) -> float:
        if self.mean_pause == 0:
            return 0.0
        return self._rng.expovariate(1.0 / self.mean_pause)

    def _sample_leg_distance(self) -> float:
        return self._rng.expovariate(1.0 / self.mean_leg_distance)

    def _clip(self, value: float) -> float:
        return max(0.0, min(self.field_size, value))

    def _begin_leg(self, node_id: int) -> None:
        assert self._sim is not None
        origin = self.channel.position_of(node_id)
        angle = self._rng.uniform(0.0, 2.0 * math.pi)
        distance = self._sample_leg_distance()
        target = Position(
            self._clip(origin.x + distance * math.cos(angle)),
            self._clip(origin.y + distance * math.sin(angle)),
        )
        self._targets[node_id] = target
        self._sim.schedule(self.update_interval, self._step, node_id)

    def _step(self, node_id: int) -> None:
        sim = self._sim
        assert sim is not None
        target = self._targets[node_id]
        if target is None:
            return
        # Position.moved_towards inlined with the same float expressions:
        # this runs once per node per update_interval for a whole run.
        # node_id came from start(), so position_of's bounds check is moot.
        current = self.channel._positions[node_id]
        distance = self.speed * self.update_interval
        total = math.hypot(current.x - target.x, current.y - target.y)
        if total <= distance or total == 0.0:
            new_position = target
            arrived = True
        else:
            frac = distance / total
            new_position = Position(current.x + (target.x - current.x) * frac,
                                    current.y + (target.y - current.y) * frac)
            arrived = new_position.x == target.x and new_position.y == target.y
        # The channel updates its spatial index incrementally (a no-op
        # unless the node crossed a grid cell), so per-step position
        # updates stay O(1) regardless of network size.
        self.channel.set_position(node_id, new_position)
        if self.on_topology_change is not None:
            self.on_topology_change()
        if arrived:
            self._targets[node_id] = None
            sim.schedule(self._sample_pause(), self._begin_leg, node_id)
        else:
            sim.schedule(self.update_interval, self._step, node_id)
