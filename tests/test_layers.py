"""The layer DAG of ``repro.checks.layers``, enforced over the shipped tree.

Every import under ``src/repro`` — absolute, relative or inside a
function — must step along :data:`~repro.checks.layers.LAYERS`;
``from X import name`` counts as an import of the submodule ``X.name``
when there is one.  ``if TYPE_CHECKING:`` blocks never execute, so
typing-only imports are skipped.  The DAG itself is checked for
acyclicity: a cyclic contract would license the import cycles it
exists to prevent.
"""

import ast
from pathlib import Path
from textwrap import dedent

import pytest

from repro.checks.astutil import resolve_import_base
from repro.checks.layers import LAYERS, layer_allows, layer_of
from repro.checks.source import ModuleSource, load_sources

SRC = Path(__file__).resolve().parents[1] / "src"


def runtime_nodes(node):
    """Every node below ``node`` except the bodies of ``if TYPE_CHECKING:``."""
    guarded = isinstance(node, ast.If) and ast.unparse(node.test).split(".")[-1] == "TYPE_CHECKING"
    for child in node.orelse if guarded else ast.iter_child_nodes(node):
        yield child
        yield from runtime_nodes(child)


def layer_violations(sources):
    """``path:line: importer -> target`` for each import outside the DAG."""
    modules = {source.module for source in sources}
    violations = []
    for source in sources:
        is_package = source.path.endswith("__init__.py")
        for node in runtime_nodes(source.tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = resolve_import_base(node, source.module, is_package)
                submodules = [f"{base}.{alias.name}" for alias in node.names]
                targets = [name if name in modules else base for name in submodules]
            else:
                continue
            for target in targets:
                if layer_of(target) is not None and not layer_allows(layer_of(source.module), layer_of(target)):
                    violations.append(f"{source.path}:{node.lineno}: {source.module} -> {target}")
    return violations


def fixture_violations(files):
    return layer_violations([ModuleSource.from_text(dedent(text), path=path) for path, text in files.items()])


def test_the_shipped_tree_follows_the_layer_dag():
    sources, errors = load_sources([SRC / "repro"])
    assert errors == []
    assert layer_violations(sources) == []


class TestLayerScan:
    def test_sim_importing_experiments_fires(self):
        assert fixture_violations({
            "src/repro/sim/bad.py": "from repro.experiments.figures import figure10\n",
        }) == ["src/repro/sim/bad.py:1: repro.sim.bad -> repro.experiments.figures"]

    def test_relative_function_local_and_submodule_imports_fire(self):
        found = fixture_violations({
            "src/repro/experiments/__init__.py": "",
            "src/repro/experiments/figures.py": """\
                def draw():
                    from ..plots import render
                    return render
                """,
            "src/repro/transport/udp.py": "import repro.routing.dijkstra\n",
            "src/repro/sim/bad.py": "from repro.experiments import figures\n",
        })
        assert found == [
            "src/repro/experiments/figures.py:2: repro.experiments.figures -> repro.plots",
            "src/repro/transport/udp.py:1: repro.transport.udp -> repro.routing.dijkstra",
            "src/repro/sim/bad.py:1: repro.sim.bad -> repro.experiments.figures",
        ]

    def test_declared_edges_are_clean(self):
        assert fixture_violations({
            "src/repro/mac/fixture.py": "from repro.sim.engine import Simulator\nfrom ..util import validation\n",
            "src/repro/experiments/fixture.py": "from repro.transport.jtp import JtpSource\n",
        }) == []

    def test_type_checking_guarded_import_is_skipped(self):
        # Only the guarded body is typing-only; the else branch runs.
        found = fixture_violations({
            "src/repro/sim/fixture.py": """\
                import typing
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.experiments.figures import figure10
                if typing.TYPE_CHECKING:
                    pass
                else:
                    import repro.plots
                """,
        })
        assert found == ["src/repro/sim/fixture.py:9: repro.sim.fixture -> repro.plots"]

    def test_undeclared_package_must_be_added_to_layers(self):
        assert fixture_violations({"src/repro/newpkg/helper.py": "import repro.sim\n"}) == [
            "src/repro/newpkg/helper.py:1: repro.newpkg.helper -> repro.sim",
        ]

    def test_the_shipped_plots_spec_carve_out_works(self):
        # experiments may import the declarative vocabulary, never the renderer.
        assert fixture_violations({
            "src/repro/experiments/fixture.py": "from repro.plots.spec import PlotSpec\n",
        }) == []
        assert fixture_violations({
            "src/repro/experiments/fixture.py": "from repro.plots.render import render_figure\n",
        }) == ["src/repro/experiments/fixture.py:1: repro.experiments.fixture -> repro.plots.render"]


class TestLayers:
    @pytest.mark.parametrize("module, expected", [
        ("repro", ""),
        ("repro.sim.engine", "sim"),
        ("repro.plots.render", "plots"),
        ("repro.plots.spec", "plots.spec"),  # longest declared prefix wins
        ("repro.newpkg.helper", "newpkg"),  # undeclared: surfaced, not hidden
        ("benchmarks.conftest", None),
        ("random", None),
    ])
    def test_layer_of(self, module, expected):
        assert layer_of(module) == expected

    def test_layer_allows_declared_edges_and_self(self):
        assert layer_allows("sim", "sim")
        assert layer_allows("sim", "util")
        assert layer_allows("experiments", "plots.spec")
        assert not layer_allows("sim", "experiments")
        assert not layer_allows("util", "sim")
        assert not layer_allows("experiments", "plots")

    def test_a_grant_covers_undeclared_sublayers(self):
        # experiments may import sim, hence sim's (undeclared-as-layer)
        # subpackages too.
        assert layer_allows("experiments", "sim")
        assert layer_allows("experiments", "sim.engine") is True

    def test_the_only_cycle_is_the_declared_simulation_island(self):
        # sim/mac/routing may see each other (the seed-pure island);
        # everything else must form a strict DAG over the islands, or
        # the layer map would be licensing import cycles.
        def mutually_granted(a, b):
            return b in LAYERS.get(a, ()) and a in LAYERS.get(b, ())

        island = {"sim", "mac", "routing"}
        for a in sorted(LAYERS):
            for b in sorted(LAYERS):
                if a != b and mutually_granted(a, b):
                    assert {a, b} <= island, f"undeclared mutual grant {a!r} <-> {b!r}"

        # Condense the island to one node and check for cycles.
        def node(layer):
            return "sim-island" if layer in island else layer

        edges = {}
        for layer, grants in LAYERS.items():
            edges.setdefault(node(layer), set()).update(
                node(grant) for grant in sorted(grants) if grant in LAYERS
            )
        WHITE, GREY, BLACK = 0, 1, 2
        state = {name: WHITE for name in edges}

        def visit(name):
            state[name] = GREY
            for dep in sorted(edges.get(name, ())):
                if dep == name:
                    continue
                if state.get(dep) == GREY:
                    raise AssertionError(f"layer cycle through {name!r} -> {dep!r}")
                if state.get(dep) == WHITE:
                    visit(dep)
            state[name] = BLACK

        for name in sorted(edges):
            if state[name] == WHITE:
                visit(name)
