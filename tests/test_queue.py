"""Drop-tail queue behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.queue import DropTailQueue


def test_fifo_order():
    q = DropTailQueue(capacity=10)
    for i in range(5):
        q.push(i)
    assert [q.pop() for _ in range(5)] == [0, 1, 2, 3, 4]


def test_drop_when_full():
    q = DropTailQueue(capacity=2)
    assert q.push("a") and q.push("b")
    assert not q.push("c")
    assert q.drops == 1
    assert len(q) == 2


def test_pop_empty_returns_none():
    q = DropTailQueue(capacity=2)
    assert q.pop() is None


def test_counters():
    q = DropTailQueue(capacity=3)
    for i in range(5):
        q.push(i)
    q.pop()
    assert q.drops == 2
    assert len(q) == 2


def test_drain_empties_queue():
    q = DropTailQueue(capacity=5)
    for i in range(4):
        q.push(i)
    assert q.drain() == [0, 1, 2, 3]
    assert len(q) == 0


def test_invalid_capacity():
    with pytest.raises(ValueError):
        DropTailQueue(capacity=0)


@given(st.lists(st.integers(), max_size=200), st.integers(min_value=1, max_value=50))
def test_occupancy_never_exceeds_capacity(items, capacity):
    q = DropTailQueue(capacity=capacity)
    for item in items:
        q.push(item)
    assert len(q) <= capacity
    assert len(q) + q.drops == len(items)
