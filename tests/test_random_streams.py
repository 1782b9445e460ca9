"""Named random streams: determinism, independence, and the only RNG sites."""

import ast
from pathlib import Path
from textwrap import dedent

import pytest

from repro.checks.astutil import ImportMap
from repro.checks.source import ModuleSource, load_sources
from repro.experiments.backends import ProcessBackend
from repro.sim.random import RandomStreams

SRC = Path(__file__).resolve().parents[1] / "src"

#: The only places ``src/repro`` may construct a ``random.Random``.
SANCTIONED_RNG_SITES = {
    ("repro.sim.random", "RandomStreams.stream"),
    ("repro.sim.channel", "Channel._link"),  # seeded from the channel's own stream
}


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


def rng_sites(sources):
    """``(module, enclosing def)`` of every call that resolves to ``random.Random``."""
    sites = set()

    def visit(node, scope, module, imap):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and imap.resolve(child.func) == "random.Random":
                sites.add((module, ".".join(scope) or "<module>"))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, (*scope, child.name) if named else scope, module, imap)

    for source in sources:
        is_package = source.path.endswith("__init__.py")
        visit(source.tree, (), source.module, ImportMap.from_tree(source.tree, source.module, is_package))
    return sites


def test_random_random_is_only_constructed_at_sanctioned_sites():
    """New randomness comes from ``RandomStreams.stream(name)``.

    A run is a bit-identical function of its scenario seed only while
    every RNG descends from the scenario's :class:`RandomStreams`.  A
    ``random.Random(7)`` in code that no pinned digest runs yet is
    invisible to every output test; this scan is not.
    """
    sources, errors = load_sources([SRC / "repro"])
    assert errors == []
    assert rng_sites(sources) == SANCTIONED_RNG_SITES


def _fixture_sites(text):
    source = ModuleSource.from_text(dedent(text), path="src/repro/sim/fixture.py")
    return rng_sites([source])


def test_rng_site_scan_catches_a_constant_seed():
    assert _fixture_sites("""\
        import random

        RNG = random.Random(1234)
        """) == {("repro.sim.fixture", "<module>")}


def test_rng_site_scan_catches_a_seedless_construction():
    assert _fixture_sites("""\
        import random

        class Mobility:
            def reset(self):
                self.rng = random.Random()
                return self.rng.random()
        """) == {("repro.sim.fixture", "Mobility.reset")}


def test_rng_site_scan_resolves_a_from_import_alias():
    assert _fixture_sites("""\
        from random import Random as R

        STREAM = R(99)
        """) == {("repro.sim.fixture", "<module>")}


def test_rng_site_scan_folds_a_module_alias_chain():
    assert _fixture_sites("""\
        import random as rnd

        _r = rnd

        STREAM = _r.Random(5)
        """) == {("repro.sim.fixture", "<module>")}
