"""Named random streams: determinism and independence."""

import pytest

from repro.experiments.backends import ProcessBackend
from repro.sim.random import RandomStreams


def _draws(seed):
    """Worker: the first ten draws of three named streams for ``seed``.

    Module-level so it pickles into worker processes.
    """
    streams = RandomStreams(seed)
    return {
        name: [streams.stream(name).random() for _ in range(10)]
        for name in ("channel", "mobility", "workload")
    }


def test_same_seed_same_sequence():
    a = RandomStreams(42).stream("channel")
    b = RandomStreams(42).stream("channel")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_different_sequences():
    streams = RandomStreams(42)
    a = streams.stream("channel")
    b = streams.stream("mobility")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = RandomStreams(1).stream("channel")
    b = RandomStreams(2).stream("channel")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")
    assert "x" in streams


def test_spawn_derives_independent_streams():
    base = RandomStreams(5)
    child_a = base.spawn(1).stream("channel")
    child_b = base.spawn(2).stream("channel")
    assert [child_a.random() for _ in range(5)] != [child_b.random() for _ in range(5)]


def test_spawn_is_deterministic():
    a = RandomStreams(5).spawn(3).stream("s")
    b = RandomStreams(5).spawn(3).stream("s")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_same_seed_gives_identical_draws_across_processes(seed):
    # The determinism seam's cross-host property (the reason DET001 bans
    # ambient entropy): seeding is derived from a stable hash of
    # (seed, name), never from per-process state like hash randomisation
    # or the PID, so worker processes replay the exact parent draws.
    local = _draws(seed)
    with ProcessBackend(workers=2) as backend:
        remote_a, remote_b = backend.map(_draws, [seed, seed])
    assert remote_a == local
    assert remote_b == local
