"""The layered node model.

A node owns a MAC instance, shares the network-wide routing service and
hosts zero or more transport agents (JTP senders/receivers or baseline
protocol endpoints).  Packets move through a node as follows:

* a local transport agent calls :meth:`Node.send`, which consults the
  routing service for the next hop and enqueues the packet at the MAC;
* the MAC delivers received frames back to the node, which either hands
  them to the local transport agent for the packet's flow (if this node
  is the destination) or forwards them by calling :meth:`send` again;
* MAC-level drops (queue overflow, attempt exhaustion, hook drops) are
  reported back so that per-flow drop counters stay accurate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol

from repro.routing.link_state import LinkStateRouting
from repro.sim.engine import Simulator
from repro.sim.stats import NetworkStats
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # imported for annotations only, to avoid a sim <-> mac import cycle
    from repro.mac.tdma import TdmaMac


class TransportAgent(Protocol):
    """The minimal interface a transport endpoint must expose to its node."""

    def on_packet(self, packet: object) -> None:
        """Handle a packet whose destination is this node and flow."""


class Node:
    """One wireless node: MAC + routing client + transport agents."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        mac: "TdmaMac",
        routing: LinkStateRouting,
        stats: NetworkStats,
        trace: Optional[TraceRecorder] = None,
    ):
        self.node_id = node_id
        self.sim = sim
        self.mac = mac
        self.routing = routing
        self.stats = stats
        self.trace = trace if trace is not None else TraceRecorder()
        self._agents: Dict[int, TransportAgent] = {}
        self.orphan_packets = 0

        mac.deliver_upstream = self._on_mac_receive
        mac.on_packet_dropped = self._on_mac_drop
        mac.remaining_hops_fn = self._remaining_hops  # type: ignore[attr-defined]

    # -- agent registry -----------------------------------------------------------------

    def register_agent(self, flow_id: int, agent: TransportAgent) -> None:
        """Attach the local endpoint of flow ``flow_id`` to this node."""
        if flow_id in self._agents:
            raise ValueError(f"node {self.node_id} already has an agent for flow {flow_id}")
        self._agents[flow_id] = agent

    # -- data path ----------------------------------------------------------------------

    def send(self, packet: object) -> bool:
        """Originate or forward ``packet`` towards its destination.

        Returns True if the packet was accepted by the MAC queue (or
        delivered locally), False if it was dropped for lack of a route
        or a full queue.
        """
        try:
            dst = packet.dst
        except AttributeError:
            raise AttributeError("packets must expose a 'dst' attribute") from None
        if dst is None:
            raise AttributeError("packets must expose a 'dst' attribute")
        if dst == self.node_id:
            self.deliver_local(packet)
            return True
        next_hop = self.routing.next_hop(self.node_id, dst)
        if next_hop is None:
            self.stats.record_routing_drop()
            self._count_flow_drop(packet)
            if "routing_drop" in self.trace.kinds:
                self.trace.record("routing_drop", self.sim.now, node=self.node_id,
                                  flow=getattr(packet, "flow_id", -1), dst=dst)
            return False
        return self.mac.enqueue(packet, next_hop)

    def _on_mac_receive(self, packet: object, from_node: int) -> None:
        try:
            hops = packet.hops_travelled  # type: ignore[attr-defined]
        except AttributeError:
            pass
        else:
            packet.hops_travelled = hops + 1  # type: ignore[attr-defined]
        if getattr(packet, "dst", None) == self.node_id:
            self.deliver_local(packet)
        else:
            self.send(packet)

    def deliver_local(self, packet: object) -> None:
        """Hand a packet destined for this node to its transport agent."""
        flow_id = getattr(packet, "flow_id", None)
        agent = self._agents.get(flow_id) if flow_id is not None else None
        if agent is None:
            self.orphan_packets += 1
            if "orphan_packet" in self.trace.kinds:
                self.trace.record("orphan_packet", self.sim.now, node=self.node_id, flow=flow_id)
            return
        agent.on_packet(packet)

    # -- fault lifecycle --------------------------------------------------------------------

    def on_crash(self) -> None:
        """Crash teardown: the MAC queue, estimators and radio die with the node.

        Transport agents stay registered — they model application state
        that survives a reboot; all in-network soft state (queued
        frames, link estimates, the iJTP cache, which the injector
        tears down separately) is lost.
        """
        self.mac.deactivate(flush=True)

    def on_recover(self) -> None:
        """Bring a crashed node back up with empty soft state."""
        self.mac.reactivate()

    def on_pause(self) -> None:
        """Pause the node: radio off, but queued frames and estimators survive."""
        self.mac.deactivate(flush=False)

    def on_resume(self) -> None:
        """Resume a paused node; queued frames continue where they stopped."""
        self.mac.reactivate()

    # -- drop accounting -------------------------------------------------------------------

    def _on_mac_drop(self, packet: object, reason: str) -> None:
        self._count_flow_drop(packet, reason)

    def _count_flow_drop(self, packet: object, reason: str = "no_route") -> None:
        flow_id = getattr(packet, "flow_id", None)
        flow = self.stats.flows.get(flow_id) if flow_id is not None else None
        if flow is None:
            return
        if reason == "energy_budget":
            flow.energy_budget_drops += 1
        else:
            flow.in_network_drops += 1

    def _remaining_hops(self, packet: object) -> Optional[int]:
        dst = getattr(packet, "dst", None)
        if dst is None:
            return None
        return self.routing.hops_to(self.node_id, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} agents={list(self._agents)}>"
