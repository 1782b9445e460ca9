"""In-network packet cache (Section 4)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cache import PacketCache
from repro.core.packet import Packet, PacketType


def data_packet(flow_id=0, seq=0):
    return Packet(flow_id=flow_id, seq=seq, packet_type=PacketType.DATA, src=0, dst=5,
                  payload_bytes=800.0)


def ack_packet():
    return Packet(flow_id=0, seq=0, packet_type=PacketType.ACK, src=5, dst=0)


class TestInsertLookup:
    def test_insert_and_lookup(self):
        cache = PacketCache(capacity=10)
        cache.insert(data_packet(seq=3))
        assert cache.lookup(0, 3) is not None
        assert cache.lookup(0, 4) is None
        assert len(cache) == 1

    def test_only_data_packets_cached(self):
        with pytest.raises(ValueError):
            PacketCache(capacity=10).insert(ack_packet())

    def test_reinsert_same_packet_does_not_grow(self):
        cache = PacketCache(capacity=10)
        cache.insert(data_packet(seq=1))
        cache.insert(data_packet(seq=1))
        assert len(cache) == 1

    def test_contains(self):
        cache = PacketCache(capacity=4)
        cache.insert(data_packet(flow_id=2, seq=7))
        assert (2, 7) in cache
        assert (2, 8) not in cache

    def test_hit_miss_counters(self):
        cache = PacketCache(capacity=4)
        cache.insert(data_packet(seq=1))
        cache.lookup(0, 1)
        cache.lookup(0, 2)
        assert cache.hits == 1 and cache.misses == 1


class TestEviction:
    def test_capacity_respected(self):
        cache = PacketCache(capacity=3)
        for seq in range(5):
            cache.insert(data_packet(seq=seq))
        assert len(cache) == 3
        assert cache.evictions == 2

    def test_lru_keeps_recently_used(self):
        cache = PacketCache(capacity=2)
        cache.insert(data_packet(seq=0))
        cache.insert(data_packet(seq=1))
        cache.lookup(0, 0)              # touch 0 so 1 becomes the LRU victim
        cache.insert(data_packet(seq=2))
        assert (0, 0) in cache
        assert (0, 1) not in cache

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PacketCache(capacity=0)

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300),
           st.integers(min_value=1, max_value=20))
    def test_size_never_exceeds_capacity(self, seqs, capacity):
        cache = PacketCache(capacity=capacity)
        for seq in seqs:
            cache.insert(data_packet(seq=seq))
        assert len(cache) <= capacity

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=100))
    def test_most_recent_insert_is_always_present(self, seqs):
        cache = PacketCache(capacity=5)
        for seq in seqs:
            cache.insert(data_packet(seq=seq))
        assert (0, seqs[-1]) in cache


class TestDiscard:
    def test_discard_up_to_cumulative_ack(self):
        cache = PacketCache(capacity=20)
        for seq in range(10):
            cache.insert(data_packet(seq=seq))
        removed = cache.discard_up_to(0, cumulative_ack=6)
        assert removed == 7
        assert (0, 7) in cache and (0, 6) not in cache

    def test_discard_up_to_only_affects_flow(self):
        cache = PacketCache(capacity=20)
        cache.insert(data_packet(flow_id=0, seq=1))
        cache.insert(data_packet(flow_id=1, seq=1))
        cache.discard_up_to(0, 5)
        assert (1, 1) in cache


class TestFlowIndexConsistency:
    """The per-flow seq index must track every entry mutation path."""

    def test_discard_up_to_after_eviction(self):
        cache = PacketCache(capacity=3)
        for seq in range(5):                      # seqs 0, 1 evicted
            cache.insert(data_packet(seq=seq))
        assert cache.discard_up_to(0, cumulative_ack=3) == 2  # only 2, 3 remain
        assert (0, 4) in cache
        assert len(cache) == 1

    def test_reinsert_does_not_double_count(self):
        cache = PacketCache(capacity=10)
        cache.insert(data_packet(seq=1))
        cache.insert(data_packet(seq=1))
        assert len(cache) == 1
        assert cache.discard_up_to(0, 1) == 1

    def test_discard_up_to_unknown_flow(self):
        cache = PacketCache(capacity=10)
        cache.insert(data_packet(flow_id=0, seq=1))
        assert cache.discard_up_to(9, 100) == 0
        assert len(cache) == 1

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.integers(min_value=0, max_value=30)),
                    min_size=1, max_size=120),
           st.integers(min_value=1, max_value=8))
    def test_index_matches_entries_under_mixed_operations(self, ops, capacity):
        cache = PacketCache(capacity=capacity)
        for i, (flow_id, seq) in enumerate(ops):
            action = (flow_id + seq + i) % 4
            if action in (0, 1):
                cache.insert(data_packet(flow_id=flow_id, seq=seq))
            elif action == 2:
                cache.discard_up_to(flow_id, seq)
            else:
                cache.lookup(flow_id, seq)
        expected = {}
        for flow_id, seq in cache._entries:
            expected.setdefault(flow_id, set()).add(seq)
        assert cache._flow_index == expected


class TestSnackRetrieval:
    def test_retrieve_for_snack(self):
        """iJTP serves a SNACK by looking up each listed seq in turn."""
        cache = PacketCache(capacity=10)
        for seq in (1, 3, 5):
            cache.insert(data_packet(seq=seq))
        found = [cache.lookup(0, seq) for seq in (1, 2, 5)]
        assert [p.seq for p in found if p is not None] == [1, 5]
        assert cache.hits == 2 and cache.misses == 1
