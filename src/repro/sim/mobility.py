"""Node mobility models.

Figure 11 of the paper evaluates JTP in a mobile 15-node network using
the **random waypoint** model: each node picks a random direction,
moves an average distance of 47 m at a fixed speed (0.1, 1 or 5 m/s),
then pauses for an average of 100 s before moving again.  This module
reproduces that model, plus a trivial static model so that every
scenario can be expressed uniformly.

A moving node advances one step every ``update_interval`` seconds, but
no event runs per step.  When a leg begins, :meth:`RandomWaypointMobility._begin_leg`
replays the leg's whole step sequence once, with the float expressions
a per-step event chain evaluates (``t = t + update_interval``, the
engine's ``now + delay``, and the step arithmetic below), into three
``array('d')`` buffers, and hands them to :meth:`Channel.move_along
<repro.sim.channel.Channel.move_along>`.  The channel applies the steps
that are due before it answers any read.  One engine event per leg, at
its last step time, draws the pause and schedules the next leg, so the
shared mobility stream is drawn in the same order as when every step
was an event.

Tie rule: a step at time ``t`` is visible to every read at time
``>= t``, including a read by an event that fires at ``t`` itself,
whatever the order in which same-time events fire.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Optional, Tuple

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
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
        values give smoother trajectories at a higher per-leg cost.
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
    ):
        self.channel = channel
        self._rng = rng
        self.speed = require_positive(speed, "speed")
        self.mean_leg_distance = require_positive(mean_leg_distance, "mean_leg_distance")
        self.mean_pause = require_non_negative(mean_pause, "mean_pause")
        self.field_size = require_positive(field_size, "field_size")
        self.update_interval = require_positive(update_interval, "update_interval")
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
        sim = self._sim
        assert sim is not None
        origin = self.channel.position_of(node_id)
        angle = self._rng.uniform(0.0, 2.0 * math.pi)
        distance = self._sample_leg_distance()
        target_x = self._clip(origin.x + distance * math.cos(angle))
        target_y = self._clip(origin.y + distance * math.sin(angle))
        times, xs, ys = self._leg(sim.now, origin.x, origin.y, target_x, target_y)
        self.channel.move_along(node_id, sim, times, xs, ys)
        sim.schedule_at(times[-1], self._arrive, node_id)

    def _leg(
        self, start: float, x: float, y: float, target_x: float, target_y: float
    ) -> Tuple[array[float], array[float], array[float]]:
        """Times and positions of every step from ``(x, y)`` to the target.

        Each step moves ``speed * update_interval`` metres towards the
        target, or onto it once it is that close; the last step lands
        exactly on the target.
        """
        interval = self.update_interval
        step = self.speed * interval
        times: array[float] = array("d")
        xs: array[float] = array("d")
        ys: array[float] = array("d")
        add_time, add_x, add_y, hypot = times.append, xs.append, ys.append, math.hypot
        t = start
        while True:
            t = t + interval
            total = hypot(x - target_x, y - target_y)
            if total <= step or total == 0.0:
                x, y = target_x, target_y
            else:
                frac = step / total
                x, y = x + (target_x - x) * frac, y + (target_y - y) * frac
            add_time(t)
            add_x(x)
            add_y(y)
            if x == target_x and y == target_y:
                return times, xs, ys

    def _arrive(self, node_id: int) -> None:
        sim = self._sim
        assert sim is not None
        sim.schedule(self._sample_pause(), self._begin_leg, node_id)
