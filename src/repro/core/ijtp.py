"""iJTP — the hop-by-hop soft-state module (Section 2.2.2, Algorithms 1-2).

iJTP is installed as a plug-in of each node's MAC and is invoked exactly
before a packet is transmitted (``pre_transmit``, Algorithm 1 "PreXmit")
and exactly after a packet is received from the physical layer
(``post_receive``, Algorithm 2 "PostRcv").  It keeps **no per-flow
state**: everything it needs travels in packet headers (Dynamic Packet
State style) or lives in its bounded packet cache.

PreXmit (data and ACK packets alike):

1. enforce the energy budget — a packet whose accumulated energy-used
   exceeds its budget is dropped (this also serves as the
   energy-conscious TTL against routing loops);
2. on the packet's first data transmission at this node, compute the
   maximum number of link-layer attempts from the link's loss rate and
   the packet's remaining loss tolerance (Eqs. 4 and 2), then update
   the loss-tolerance field for the remainder of the path (Eq. 3);
3. stamp the packet with the minimum *effective* available rate seen so
   far (the MAC's available rate normalised by the average number of
   link-layer attempts).

PostRcv:

* data packets are inserted into the local cache;
* ACK packets have their SNACK examined — requested packets present in
  the cache are retransmitted towards the destination and moved to the
  ACK's locally-recovered field so upstream nodes and the source do not
  retransmit them again.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.cache import PacketCache
from repro.core.config import JTPConfig
from repro.core.packet import AckInfo, Packet
from repro.core.reliability import plan_link_attempts
from repro.mac.tdma import TdmaMac
from repro.sim.stats import NetworkStats
from repro.sim.trace import TraceRecorder


class IntermediateJTP:
    """One node's iJTP instance."""

    #: Seconds to wait before retransmitting the same cached packet
    #: again.  Successive feedback messages keep listing a missing
    #: packet until it finally arrives; without a hold-off every one of
    #: them would trigger another cache retransmission of a copy that is
    #: already on its way.
    RECOVERY_HOLDOFF = 6.0

    def __init__(
        self,
        node_id: int,
        mac: TdmaMac,
        config: Optional[JTPConfig] = None,
        stats: Optional[NetworkStats] = None,
        trace: Optional[TraceRecorder] = None,
        send_fn: Optional[Callable[[Packet], bool]] = None,
    ):
        self.node_id = node_id
        self.mac = mac
        self.config = config or JTPConfig()
        self.stats = stats
        self.trace = trace if trace is not None else TraceRecorder()
        # Read once per PreXmit, so cached: one attribute load in untraced runs.
        self._trace_budget_drops = "energy_budget_drop" in self.trace.kinds
        self._trace_attempts = "ijtp_attempts" in self.trace.kinds
        self.send_fn = send_fn
        self.cache: Optional[PacketCache] = (
            PacketCache(self.config.cache_size)
            if self.config.caching_enabled
            else None
        )
        self.energy_budget_drops = 0
        self.local_retransmissions = 0
        self._recent_recoveries: dict = {}
        self._installed = False

    # -- installation -----------------------------------------------------------------------

    def install(self) -> None:
        """Register PreXmit/PostRcv as MAC hooks (idempotent)."""
        if self._installed:
            return
        self.mac.pre_transmit_hooks.append(self.pre_transmit)
        self.mac.post_receive_hooks.append(self.post_receive)
        self._installed = True

    def on_node_crash(self) -> None:
        """Crash teardown (fault injection): iJTP soft state dies with the node.

        The packet cache and the recovery hold-off table are per-node
        soft state in the paper's sense — rebuilt from traversing
        traffic, never required for correctness — so a crashed node
        restarts with both empty.
        """
        if self.cache is not None:
            self.cache.clear()
        self._recent_recoveries.clear()

    # -- Algorithm 1: PreXmit ------------------------------------------------------------------

    def pre_transmit(self, packet: object, mac: TdmaMac, next_hop: int) -> bool:
        """Per-hop soft-state operations run just before transmission to ``next_hop``.

        Returns False to make the MAC drop the packet (energy budget
        exceeded).  Non-JTP packets pass through untouched so baseline
        protocols can share the same MAC.  Link state (loss rate,
        available rate, average attempts, remaining hops) is read from
        ``mac`` only for data frames, the one branch that uses it.
        """
        if not isinstance(packet, Packet):
            return True

        # Lines 1-3: energy budget enforcement.  The MAC accumulates the
        # actual per-attempt energy into packet.energy_used; here we check
        # the budget before spending any more on this hop.
        if packet.energy_used > packet.energy_budget:
            self.energy_budget_drops += 1
            self._count_flow(packet, "energy_budget_drops")
            if self._trace_budget_drops:
                self.trace.record(
                    "energy_budget_drop", mac.sim.now, node=self.node_id,
                    flow=packet.flow_id, seq=packet.seq,
                    used=packet.energy_used, budget=packet.energy_budget,
                )
            return False

        if packet.is_data:
            # Lines 5-9: compute this hop's attempt bound and update the
            # loss tolerance carried forward ("firstDataTransmission" is
            # per hop — the hook runs once per packet service, retries
            # reuse the bound installed here).
            hops_fn = mac.remaining_hops_fn
            remaining_hops = None if hops_fn is None else hops_fn(packet)
            if remaining_hops is None or remaining_hops < 1:
                remaining_hops = 1
            estimator = mac.link_estimator(next_hop)
            loss_rate = estimator.loss_rate
            attempts, packet.loss_tolerance = plan_link_attempts(
                packet.loss_tolerance, loss_rate, remaining_hops,
                self.config.max_attempts,
            )
            packet.max_link_attempts = attempts
            if self._trace_attempts:
                self.trace.record(
                    "ijtp_attempts", mac.sim.now, node=self.node_id, flow=packet.flow_id,
                    seq=packet.seq, attempts=attempts, loss_rate=loss_rate,
                    remaining_hops=remaining_hops,
                )

            # Lines 10-12: stamp the minimum effective available rate
            # (what ``min(stamped, effective_rate)`` would store).
            effective_rate = mac.available_rate_pps(next_hop) / max(1.0, estimator.average_attempts)
            if effective_rate < packet.available_rate_pps:
                packet.available_rate_pps = effective_rate

        return True

    # -- Algorithm 2: PostRcv ---------------------------------------------------------------------

    def post_receive(self, packet: object, mac: TdmaMac) -> bool:
        """Per-hop operations run just after reception from the physical layer."""
        if not isinstance(packet, Packet):
            return True
        if packet.is_data:
            self._cache_data_packet(packet)
        elif packet.is_ack and packet.ack is not None:
            self._serve_snack(packet, packet.ack)
        return True

    def _cache_data_packet(self, packet: Packet) -> None:
        if self.cache is None:
            return
        # The destination keeps the packet anyway; only transit nodes cache.
        if packet.dst == self.node_id:
            return
        self.cache.insert(packet)

    def _serve_snack(self, ack_packet: Packet, ack: AckInfo) -> None:
        """Retransmit SNACKed packets found in the cache; annotate the ACK."""
        if self.cache is not None and ack.cumulative_ack >= 0:
            self.cache.discard_up_to(ack_packet.flow_id, ack.cumulative_ack)
        if self.cache is None or self.send_fn is None:
            return
        outstanding = ack.outstanding_snack()
        if not outstanding:
            return
        now = self.mac.sim.now
        recovered = []
        for seq in outstanding:
            key = (ack_packet.flow_id, seq)
            recently = self._recent_recoveries.get(key)
            if recently is not None and now - recently < self.RECOVERY_HOLDOFF:
                # A copy from this node is already in flight; claim the
                # entry so upstream nodes and the source do not duplicate it.
                recovered.append(seq)
                continue
            cached = self.cache.lookup(ack_packet.flow_id, seq)
            if cached is None:
                continue
            clone = cached.clone_for_retransmission(recovered_by=self.node_id)
            if self.send_fn(clone):
                recovered.append(seq)
                self._recent_recoveries[key] = now
                self.local_retransmissions += 1
                self._count_flow(ack_packet, "cache_recoveries")
                self._count_flow(ack_packet, "cache_hits")
                if "cache_recovery" in self.trace.kinds:
                    self.trace.record(
                        "cache_recovery", now, node=self.node_id,
                        flow=ack_packet.flow_id, seq=seq,
                    )
        if recovered:
            ack.locally_recovered = tuple(sorted(set(ack.locally_recovered) | set(recovered)))
        if len(self._recent_recoveries) > 4 * self.config.cache_size:
            horizon = now - self.RECOVERY_HOLDOFF
            self._recent_recoveries = {
                key: when for key, when in self._recent_recoveries.items() if when >= horizon
            }

    # -- helpers ----------------------------------------------------------------------------------

    def _count_flow(self, packet: Packet, counter: str) -> None:
        if self.stats is None:
            return
        flow = self.stats.flows.get(packet.flow_id)
        if flow is None:
            return
        setattr(flow, counter, getattr(flow, counter) + 1)


def install_ijtp_everywhere(network, config: Optional[JTPConfig] = None) -> list:
    """Install an iJTP module on every node of ``network``.

    Returns the list of created modules.  The ``send_fn`` of each module
    is the owning node's :meth:`Node.send`, so cache retransmissions are
    routed and scheduled exactly like any other packet originating at
    that node.
    """
    modules = []
    for node in network.nodes:
        module = IntermediateJTP(
            node.node_id,
            node.mac,
            config=config,
            stats=network.stats,
            trace=network.trace,
            send_fn=node.send,
        )
        module.install()
        modules.append(module)
    return modules
