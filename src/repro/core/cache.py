"""In-network packet cache (Section 4).

Every iJTP instance manages a bounded cache of the data packets that
traversed its node.  When an ACK with a SNACK list passes through, any
requested packet found in the cache is retransmitted towards the
destination and marked in the ACK's locally-recovered field so that
upstream nodes (and ultimately the source) do not retransmit it again.

The paper evicts the **least recently manipulated** packet (LRU) on
overflow and leaves the study of other policies to future work.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.packet import Packet
from repro.util.validation import require_positive


class PacketCache:
    """Bounded per-node store of traversing data packets.

    Alongside the recency-ordered entry map, a per-flow sequence-number
    index is maintained so that the cumulative-ACK and flow-teardown
    discards touch only the affected flow's entries instead of scanning
    the whole cache (every traversing ACK triggers one such discard).
    """

    def __init__(self, capacity: int = 1000):
        self.capacity = int(require_positive(capacity, "capacity"))
        self._entries: "OrderedDict[Tuple[int, int], Packet]" = OrderedDict()
        self._flow_index: Dict[int, Set[int]] = {}
        self.insertions = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._entries

    def insert(self, packet: Packet) -> None:
        """Store a traversing data packet, evicting if necessary.

        Re-inserting an already-cached packet refreshes both its stored
        copy and its recency.
        """
        if not packet.is_data:
            raise ValueError("only data packets are cached")
        key = packet.cache_key()
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            self._evict_one()
        self._entries[key] = packet
        index = self._flow_index.get(key[0])
        if index is None:
            index = self._flow_index[key[0]] = set()
        index.add(key[1])
        self.insertions += 1

    def _evict_one(self) -> None:
        """Remove the least recently used packet.

        The victim is the first entry of the ordered dict: inserts and
        lookups move an entry to the end.
        """
        key, _ = self._entries.popitem(last=False)
        self._unindex(key)
        self.evictions += 1

    def _unindex(self, key: Tuple[int, int]) -> None:
        seqs = self._flow_index.get(key[0])
        if seqs is not None:
            seqs.discard(key[1])
            if not seqs:
                del self._flow_index[key[0]]

    def lookup(self, flow_id: int, seq: int) -> Optional[Packet]:
        """Return the cached packet, refreshing its recency."""
        key = (flow_id, seq)
        packet = self._entries.get(key)
        if packet is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return packet

    def discard(self, flow_id: int, seq: int) -> bool:
        """Remove a packet (e.g. once it is known to be delivered)."""
        key = (flow_id, seq)
        if self._entries.pop(key, None) is None:
            return False
        self._unindex(key)
        return True

    def discard_up_to(self, flow_id: int, cumulative_ack: int) -> int:
        """Drop all cached packets of ``flow_id`` with seq <= ``cumulative_ack``.

        Called when a traversing ACK shows those packets have reached
        the destination; keeping them would only waste cache slots.
        Only the flow's own index entries are visited, so the cost is
        independent of the total cache size.  Returns the number of
        entries removed.
        """
        seqs = self._flow_index.get(flow_id)
        if not seqs:
            return 0
        stale = [seq for seq in seqs if seq <= cumulative_ack]
        for seq in stale:
            del self._entries[(flow_id, seq)]
        seqs.difference_update(stale)
        if not seqs:
            del self._flow_index[flow_id]
        return len(stale)

    def discard_flow(self, flow_id: int) -> int:
        """Drop every cached packet belonging to ``flow_id``."""
        seqs = self._flow_index.pop(flow_id, None)
        if not seqs:
            return 0
        for seq in seqs:
            del self._entries[(flow_id, seq)]
        return len(seqs)

    def clear(self) -> int:
        """Drop every cached packet (node-crash teardown); returns the count.

        Hit/miss/eviction counters survive — they describe the node's
        history, not its current contents.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self._flow_index.clear()
        return dropped

    def retrieve_for_snack(self, flow_id: int, snack: Tuple[int, ...]) -> List[Packet]:
        """All cached packets of ``flow_id`` whose seq appears in ``snack``."""
        found: List[Packet] = []
        for seq in snack:
            packet = self.lookup(flow_id, seq)
            if packet is not None:
                found.append(packet)
        return found

    def occupancy_by_flow(self) -> Dict[int, int]:
        """Number of cached packets per flow (useful for fairness studies)."""
        return {flow_id: len(seqs) for flow_id, seqs in self._flow_index.items()}

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that found the requested packet."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
