"""The whole-program layer: Project indexing, the layer DAG, and the
exception rule.

``repro.checks.project.Project`` is the substrate every ProjectRule
stands on, so its tables are pinned directly: the module/package
tables, resolved import edges (relative levels, ``TYPE_CHECKING``
guards), the alias-aware symbol index with re-export chains, and the
best-effort call graph.  The layer DAG itself is checked for
acyclicity — ARCH001 enforcing a cyclic contract would be a license to
create import cycles.  EXC001 gets the same fixture-per-behaviour
treatment as the per-file rules in ``test_checks.py``.
"""

from textwrap import dedent

import pytest

from repro.checks import ModuleSource, get_rule, run_rules
from repro.checks.layers import LAYERS, layer_allows, layer_of
from repro.checks.project import MODULE_CALLER, Project


def make_project(files):
    """Build a Project from ``{path: text}`` fixture files."""
    sources = [ModuleSource.from_text(dedent(text), path=path) for path, text in files.items()]
    return Project(sources)


def project_findings(rule_id, files):
    sources = [ModuleSource.from_text(dedent(text), path=path) for path, text in files.items()]
    return run_rules(sources, [get_rule(rule_id)])


def findings_for(rule_id, text, module):
    source = ModuleSource.from_text(dedent(text), path=f"<{module}>", module=module)
    return list(get_rule(rule_id).run(source))


# ---------------------------------------------------------------------------
# Project — module table, import edges, definitions, call graph
# ---------------------------------------------------------------------------


class TestProjectIndex:
    def test_module_table_and_packages(self):
        project = make_project({
            "src/repro/sim/__init__.py": "",
            "src/repro/sim/engine.py": "VALUE = 1\n",
        })
        assert set(project.modules) == {"repro.sim", "repro.sim.engine"}
        assert project.packages == {"repro.sim"}
        assert project.by_path["src/repro/sim/engine.py"].module == "repro.sim.engine"

    def test_import_edges_resolve_submodules_and_relative_levels(self):
        project = make_project({
            "src/repro/sim/__init__.py": "",
            "src/repro/sim/engine.py": "",
            "src/repro/sim/network.py": """\
                from repro.sim import engine
                from . import engine as eng
                import repro.util.validation
                """,
        })
        edges = {
            (edge.importer, edge.target, edge.line)
            for edge in project.import_edges
            if edge.importer == "repro.sim.network"
        }
        # Both spellings resolve to the scanned submodule; the plain
        # import records its dotted target verbatim.
        assert ("repro.sim.network", "repro.sim.engine", 1) in edges
        assert ("repro.sim.network", "repro.sim.engine", 2) in edges
        assert ("repro.sim.network", "repro.util.validation", 3) in edges

    def test_type_checking_guard_marks_the_edge(self):
        project = make_project({
            "src/repro/sim/fixture.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.experiments import figures
                else:
                    import repro.util
                """,
        })
        by_target = {edge.target: edge.type_checking for edge in project.import_edges}
        assert by_target["repro.experiments"] is True
        assert by_target["repro.util"] is False  # an If's orelse runs at runtime

    def test_definitions_are_fully_qualified(self):
        project = make_project({
            "src/repro/sim/fixture.py": """\
                class Engine:
                    def run(self, steps):
                        def tick():
                            return steps
                        return tick

                async def pump():
                    pass
                """,
        })
        defs = project.definitions
        assert defs["repro.sim.fixture.Engine"].kind == "class"
        run = defs["repro.sim.fixture.Engine.run"]
        assert run.params == ("self", "steps")
        assert "repro.sim.fixture.Engine.run.<locals>.tick" in defs
        assert defs["repro.sim.fixture.pump"].kind == "async"

    def test_call_graph_covers_locals_imports_and_self_methods(self):
        project = make_project({
            "src/repro/sim/helpers.py": """\
                def helper():
                    return 1
                """,
            "src/repro/sim/fixture.py": """\
                from repro.sim.helpers import helper

                class Engine:
                    def run(self):
                        return self.step() + helper()

                    def step(self):
                        return local()

                def local():
                    return helper()
                """,
        })
        graph = project.call_graph
        run = graph["repro.sim.fixture.Engine.run"]
        assert "repro.sim.fixture.Engine.step" in run
        assert "repro.sim.helpers.helper" in run
        assert "repro.sim.fixture.local" in graph["repro.sim.fixture.Engine.step"]
        assert "repro.sim.helpers.helper" in graph["repro.sim.fixture.local"]

    def test_module_level_calls_get_the_pseudo_caller(self):
        project = make_project({
            "src/repro/sim/fixture.py": """\
                def setup():
                    return 1

                VALUE = setup()
                """,
        })
        caller = f"repro.sim.fixture.{MODULE_CALLER}"
        assert "repro.sim.fixture.setup" in project.call_graph[caller]

    def test_class_call_also_records_the_init_edge(self):
        project = make_project({
            "src/repro/sim/fixture.py": """\
                class Engine:
                    def __init__(self):
                        pass

                def build():
                    return Engine()
                """,
        })
        callees = project.call_graph["repro.sim.fixture.build"]
        assert "repro.sim.fixture.Engine" in callees
        assert "repro.sim.fixture.Engine.__init__" in callees

    def test_resolve_symbol_follows_reexport_chains(self):
        project = make_project({
            "src/repro/sim/__init__.py": "from repro.sim.random import RandomStreams\n",
            "src/repro/sim/random.py": """\
                class RandomStreams:
                    pass
                """,
        })
        assert project.resolve_symbol("repro.sim.RandomStreams") == "repro.sim.random.RandomStreams"
        # Externals come back unchanged.
        assert project.resolve_symbol("time.sleep") == "time.sleep"


# ---------------------------------------------------------------------------
# The layer DAG itself
# ---------------------------------------------------------------------------


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
        # ARCH001 would be licensing import cycles it claims to prevent.
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


# ---------------------------------------------------------------------------
# EXC001 — silent broad-exception swallows
# ---------------------------------------------------------------------------


class TestEXC001:
    def test_silent_broad_handler_fires(self):
        found = findings_for("EXC001", """\
            def run(task):
                try:
                    task()
                except Exception:
                    pass
            """, module="repro.experiments.fixture")
        assert len(found) == 1
        assert "catches Exception and silently discards it" in found[0].message

    def test_bare_except_with_continue_fires(self):
        found = findings_for("EXC001", """\
            def drain(tasks):
                for task in tasks:
                    try:
                        task()
                    except:
                        continue
            """, module="repro.experiments.fixture")
        assert len(found) == 1
        assert "bare except" in found[0].message

    def test_broad_member_of_a_tuple_fires(self):
        found = findings_for("EXC001", """\
            def run(task):
                try:
                    task()
                except (ValueError, Exception):
                    pass
            """, module="repro.experiments.fixture")
        assert len(found) == 1

    def test_handlers_that_handle_are_clean(self):
        found = findings_for("EXC001", """\
            def run(task, log):
                try:
                    task()
                except Exception as exc:
                    log.append(exc)
                    raise
                except OSError:
                    pass
            """, module="repro.experiments.fixture")
        assert found == []

    def test_suppress_of_broad_exception_fires(self):
        found = findings_for("EXC001", """\
            from contextlib import suppress

            def teardown(conn):
                with suppress(Exception):
                    conn.close()
            """, module="repro.experiments.fixture")
        assert len(found) == 1
        assert "contextlib.suppress" in found[0].message

    def test_argless_suppress_fires_and_narrow_suppress_is_clean(self):
        dirty = findings_for("EXC001", """\
            import contextlib

            def teardown(conn):
                with contextlib.suppress():
                    conn.close()
            """, module="repro.experiments.fixture")
        assert len(dirty) == 1
        clean = findings_for("EXC001", """\
            from contextlib import suppress

            def teardown(conn):
                with suppress(OSError, ValueError):
                    conn.close()
            """, module="repro.experiments.fixture")
        assert clean == []

    def test_justified_pragma_suppresses(self):
        found = findings_for("EXC001", """\
            from contextlib import suppress

            def teardown(conn):
                # repro: allow[EXC001] best-effort teardown pinned by a test
                with suppress(Exception):
                    conn.close()
            """, module="repro.experiments.fixture")
        assert found == []

    def test_tests_are_out_of_scope(self):
        found = findings_for("EXC001", """\
            def probe(task):
                try:
                    task()
                except Exception:
                    pass
            """, module="tests.test_fixture")
        assert found == []
