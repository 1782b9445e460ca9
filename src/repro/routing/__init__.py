"""Link-state routing substrate.

JAVeLEN uses an energy-conserving link-state routing protocol that
gives every node "a local, possibly inaccurate, view of the network's
topology".  JTP relies on routing for exactly two things:

* the next hop towards a destination (packet forwarding), and
* the number of remaining hops to the destination, which iJTP uses to
  split the end-to-end loss tolerance across the remaining links
  (Section 3) — and which may be stale or wrong, a situation JTP is
  explicitly designed to tolerate.

This package provides a shortest-path core
(:mod:`repro.routing.dijkstra`) and a link-state protocol whose nodes
share one view of the topology, refreshed from the channel every
``update_period`` and stale by up to that long in between
(:mod:`repro.routing.link_state`).
"""

from repro.routing.dijkstra import shortest_path_tree
from repro.routing.link_state import LinkStateRouting

__all__ = [
    "shortest_path_tree",
    "LinkStateRouting",
]
