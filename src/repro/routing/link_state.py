"""Link-state routing with a periodically refreshed, possibly stale view.

Every ``update_period`` seconds the protocol snapshots the channel's
true connectivity graph; between refreshes every node routes — and
estimates remaining hop counts — on that snapshot, so after a move a
node's view lags the ground truth by up to one ``update_period``.  That
single lag is how the paper's "topological views at different nodes
are inconsistent" situation arises, and JTP's per-hop loss-tolerance
update (Eq. 3) is specifically designed to keep the end-to-end
reliability target even then.

All nodes share one view object: the channel's graph as of the last
refresh, which the channel never mutates (it builds a new graph after
every change).  Shortest-path trees are computed on demand, one per
queried node per view, and dropped when the view changes.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.routing.dijkstra import routing_tree
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.util.validation import require_positive


class LinkStateRouting:
    """Network-wide routing service over a shared, periodically refreshed view."""

    def __init__(self, channel: Channel, sim: Simulator, update_period: float = 10.0) -> None:
        self.channel = channel
        self.sim = sim
        self.update_period = require_positive(update_period, "update_period")
        self._view: Optional[Dict[int, Set[int]]] = None
        #: node -> (hop distances, first hops) over the current view;
        #: filled on a node's first query, dropped when the view changes.
        self._trees: Dict[int, Tuple[Dict[int, float], Dict[int, int]]] = {}
        self.view_updates = 0

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        """Take the initial snapshot and schedule periodic view refreshes."""
        self.refresh_all_views()
        self.sim.schedule(self.update_period, self._periodic_update)

    def _periodic_update(self) -> None:
        self.refresh_all_views()
        self.sim.schedule(self.update_period, self._periodic_update)

    def refresh_all_views(self) -> None:
        """Give every node the channel's current connectivity graph.

        The view is the channel's cached graph itself, shared by all
        nodes and never copied; treat it as immutable.  When the graph
        is unchanged since the previous refresh — the steady state of
        every static topology — the view and every tree computed on it
        are kept.
        """
        graph = self.channel.connectivity()
        if graph is not self._view and graph != self._view:
            self._view = graph
            self._trees.clear()
        self.view_updates += 1

    def on_topology_change(self) -> None:
        """No-op hook for topology changes; nothing in the simulator calls it.

        Views catch up only at the periodic refresh, as a real
        link-state protocol needs time to flood updated LSAs, and
        mobility moves nodes lazily without any per-step callback
        (:mod:`repro.sim.mobility`).  The hook stays because the
        end-to-end benchmark's trace (``benchmarks/e2e/child.py``)
        counts its calls; scenarios that want instant convergence call
        :meth:`refresh_all_views`.
        """

    # -- queries used by forwarding and by iJTP ------------------------------------------

    def view_of(self, node_id: int) -> Dict[int, Set[int]]:
        """The topology as ``node_id`` currently believes it to be (the shared view)."""
        if self._view is None:
            self.refresh_all_views()
        assert self._view is not None
        return self._view

    def _build_tree(self, node_id: int) -> Tuple[Dict[int, float], Dict[int, int]]:
        tree = routing_tree(self.view_of(node_id), node_id)
        self._trees[node_id] = tree
        return tree

    def next_hop(self, node_id: int, destination: int) -> Optional[int]:
        """Next hop from ``node_id`` towards ``destination`` (or None)."""
        if node_id == destination:
            return destination
        tree = self._trees.get(node_id) or self._build_tree(node_id)
        return tree[1].get(destination)

    def hops_to(self, node_id: int, destination: int) -> Optional[int]:
        """Remaining hop count from ``node_id`` to ``destination`` per its view.

        iJTP asks for this on every packet service; it is served from
        the same per-node tree as :meth:`next_hop`.
        """
        if node_id == destination:
            return 0
        tree = self._trees.get(node_id) or self._build_tree(node_id)
        hops = tree[0].get(destination)
        return None if hops is None else int(hops)
