"""The static-analysis suite: every rule fires, every pragma suppresses.

Each rule is exercised through :meth:`ModuleSource.from_text` fixtures
(with a ``module=`` override to place the fixture inside or outside the
rule's package scope), the pragma and module-naming helpers are unit
tested, the CLI is driven end to end through ``main()``, and — the gate
that matters — the shipped ``src/`` tree must scan clean, so any new
determinism or contract violation fails the test suite before it
reaches CI.
"""

import io
import json
import re
from pathlib import Path
from textwrap import dedent

import pytest

from repro.checks import ModuleSource, all_rules, get_rule, run_rules
from repro.checks.cli import PARSE_RULE_ID, main
from repro.checks.pragmas import is_allowed, parse_pragmas
from repro.checks.source import module_name_for

REPO_ROOT = Path(__file__).resolve().parents[1]


def findings_for(rule_id, text, module):
    """Run one rule over fixture source text placed at ``module``."""
    source = ModuleSource.from_text(dedent(text), path=f"<{module}>", module=module)
    return list(get_rule(rule_id).run(source))


# ---------------------------------------------------------------------------
# DET001 — ambient entropy
# ---------------------------------------------------------------------------


class TestDET001:
    def test_module_level_rng_call_fires(self):
        found = findings_for("DET001", """\
            import random

            def jitter():
                return random.random()
            """, module="repro.sim.fixture")
        assert len(found) == 1
        assert found[0].rule_id == "DET001"
        assert "random.random" in found[0].message

    def test_aliased_time_import_fires(self):
        found = findings_for("DET001", """\
            import time as _time

            def stamp():
                return _time.perf_counter()
            """, module="repro.transport.fixture")
        assert len(found) == 1
        assert "perf_counter" in found[0].message

    def test_from_import_of_wall_clock_fires(self):
        found = findings_for("DET001", """\
            from time import monotonic
            """, module="repro.mac.fixture")
        assert len(found) == 1
        assert "monotonic" in found[0].message

    @pytest.mark.parametrize("snippet", [
        "import os\n\ndef key():\n    return os.urandom(8)\n",
        "import uuid\n\ndef ident():\n    return uuid.uuid4()\n",
    ])
    def test_urandom_and_uuid_fire(self, snippet):
        assert findings_for("DET001", snippet, module="repro.routing.fixture")

    def test_seeded_random_instance_is_allowed(self):
        found = findings_for("DET001", """\
            import random

            def make(seed):
                return random.Random(seed)
            """, module="repro.sim.fixture")
        assert found == []

    def test_time_sleep_is_allowed(self):
        found = findings_for("DET001", """\
            import time

            def pause():
                time.sleep(0.1)
            """, module="repro.sim.fixture")
        assert found == []

    def test_out_of_scope_module_is_ignored(self):
        found = findings_for("DET001", """\
            import random

            def jitter():
                return random.random()
            """, module="repro.plots.fixture")
        assert found == []

    def test_pragma_suppresses(self):
        found = findings_for("DET001", """\
            import time as _time

            # repro: allow[DET001] profiler wall-clock, never simulation state
            perf = _time.perf_counter()
            """, module="repro.sim.fixture")
        assert found == []


# ---------------------------------------------------------------------------
# DET002 — unordered iteration
# ---------------------------------------------------------------------------


class TestDET002:
    def test_for_over_set_literal_fires(self):
        found = findings_for("DET002", """\
            def run():
                for item in {3, 1, 2}:
                    print(item)
            """, module="repro.sim.fixture")
        assert len(found) == 1
        assert "set literal" in found[0].message

    def test_sum_over_bare_set_call_fires(self):
        found = findings_for("DET002", """\
            def total(xs):
                return sum(set(xs))
            """, module="repro.experiments.fixture")
        assert len(found) == 1
        assert "sum()" in found[0].message

    def test_list_of_keys_view_fires(self):
        found = findings_for("DET002", """\
            def names(table):
                return list(table.keys())
            """, module="repro.experiments.fixture")
        assert len(found) == 1
        assert ".keys()" in found[0].message

    def test_set_annotated_parameter_fires(self):
        found = findings_for("DET002", """\
            from typing import Set

            def drain(pending: Set[int]):
                for item in pending:
                    print(item)
            """, module="repro.transport.fixture")
        assert len(found) == 1
        assert "pending" in found[0].message

    def test_module_alias_of_set_valued_mapping_fires(self):
        found = findings_for("DET002", """\
            from typing import Mapping, Set

            Graph = Mapping[int, Set[int]]

            def degree_sum(graph: Graph, node: int):
                return sum(1 for _ in graph[node])
            """, module="repro.routing.fixture")
        assert len(found) == 1
        assert "graph" in found[0].message

    def test_local_set_assignment_fires(self):
        found = findings_for("DET002", """\
            def run(xs):
                seen = set(xs)
                return [x for x in seen]
            """, module="repro.sim.fixture")
        assert len(found) == 1

    def test_sorted_wrapping_is_the_sanctioned_fix(self):
        found = findings_for("DET002", """\
            def run(xs):
                seen = set(xs)
                return [x for x in sorted(seen)]
            """, module="repro.sim.fixture")
        assert found == []

    def test_list_iteration_is_not_flagged(self):
        found = findings_for("DET002", """\
            def run(xs):
                for x in list(xs):
                    print(x)
            """, module="repro.sim.fixture")
        assert found == []

    def test_out_of_scope_module_is_ignored(self):
        found = findings_for("DET002", """\
            def run():
                for item in {3, 1, 2}:
                    print(item)
            """, module="repro.plots.fixture")
        assert found == []

    def test_pragma_on_preceding_line_suppresses(self):
        found = findings_for("DET002", """\
            def highest(sacked):
                # repro: allow[DET002] max over ints is order-independent
                return max(sacked) if sacked else 0

            def caller(xs):
                return sum(set(xs))
            """, module="repro.transport.fixture")
        # Only the un-pragma'd sum-over-set in caller() remains.
        assert len(found) == 1
        assert found[0].line == 6


# ---------------------------------------------------------------------------
# ENV001 — environment seams
# ---------------------------------------------------------------------------


class TestENV001:
    def test_stray_environ_read_fires(self):
        found = findings_for("ENV001", """\
            import os

            def workers():
                return os.environ.get("REPRO_WORKERS")
            """, module="repro.experiments.fixture")
        assert len(found) == 1
        assert "_from_env" in found[0].message

    def test_from_import_of_getenv_fires(self):
        found = findings_for("ENV001", """\
            from os import getenv

            def workers():
                return getenv("REPRO_WORKERS")
            """, module="repro.experiments.fixture")
        assert len(found) == 1

    def test_read_inside_from_env_seam_is_allowed(self):
        found = findings_for("ENV001", """\
            import os

            def workers_from_env():
                return os.environ.get("REPRO_WORKERS")
            """, module="repro.experiments.fixture")
        assert found == []

    def test_tests_are_out_of_scope(self):
        found = findings_for("ENV001", """\
            import os

            def fake():
                return os.environ.get("REPRO_WORKERS")
            """, module="tests.test_fixture")
        assert found == []


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


# ---------------------------------------------------------------------------
# Pragmas and module naming
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_parse_collects_ids_by_line(self):
        pragmas = parse_pragmas([
            "x = 1",
            "y = 2  # repro: allow[DET001]",
            "z = 3  # repro: allow[det002, ENV001] reason text",
        ])
        assert pragmas == {2: frozenset({"DET001"}), 3: frozenset({"DET002", "ENV001"})}

    def test_allowed_on_own_line_and_line_below_only(self):
        pragmas = parse_pragmas(["# repro: allow[DET002] pinned", "for x in s:", "pass"])
        assert is_allowed(pragmas, "DET002", 1)
        assert is_allowed(pragmas, "DET002", 2)
        assert not is_allowed(pragmas, "DET002", 3)
        assert not is_allowed(pragmas, "DET001", 2)


class TestPragmaSpans:
    """A pragma anchors to the whole statement span, not just one line."""

    def test_pragma_above_a_multi_line_statement_suppresses(self):
        # The finding lands on line 5 (the perf_counter call) while the
        # pragma sits above the statement's first line — the classic
        # wrapped-call layout the line-based rule used to miss.
        found = findings_for("DET001", """\
            import time as _time

            # repro: allow[DET001] profiler wall-clock, never simulation state
            value = (
                _time.perf_counter()
            )
            """, module="repro.sim.fixture")
        assert found == []

    def test_pragma_on_the_def_line_covers_the_decorator_line(self):
        found = findings_for("DET001", """\
            import time as _time

            @_time.perf_counter
            def stamp():  # repro: allow[DET001] decorator evaluated once at import
                return 0
            """, module="repro.sim.fixture")
        assert found == []

    def test_header_pragma_does_not_blanket_the_body(self):
        # A compound statement's span stops before its body: a pragma
        # above a def must not silence every finding inside it.
        found = findings_for("DET001", """\
            import time as _time

            # repro: allow[DET001] header only
            def stamp():
                return _time.perf_counter()
            """, module="repro.sim.fixture")
        assert len(found) == 1
        assert found[0].line == 5


class TestModuleNames:
    @pytest.mark.parametrize("path, expected", [
        ("src/repro/sim/engine.py", "repro.sim.engine"),
        ("src/repro/checks/__init__.py", "repro.checks"),
        ("tests/test_engine.py", "tests.test_engine"),
        ("benchmarks/bench_core_engine.py", "benchmarks.bench_core_engine"),
        ("scratch/snippet.py", "snippet"),
    ])
    def test_dotted_names(self, path, expected):
        assert module_name_for(Path(path)) == expected


# ---------------------------------------------------------------------------
# Registry and CLI
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_the_full_catalogue_is_registered(self):
        assert [rule.id for rule in all_rules()] == [
            "DET001", "DET002", "ENV001", "EXC001",
        ]

    def test_every_rule_has_a_docs_catalogue_entry(self):
        # --list-rules and docs/checks.md must not drift either way:
        # every registered rule has a "### <ID> —" heading in the docs,
        # and every such heading names a registered rule, so a deleted
        # rule's section cannot linger.
        text = (REPO_ROOT / "docs" / "checks.md").read_text()
        documented = set(re.findall(r"^### (\S+) —", text, flags=re.MULTILINE))
        assert documented == {rule.id for rule in all_rules()}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            get_rule("NOPE999")

    def test_run_rules_sorts_findings(self):
        source = ModuleSource.from_text(
            "import random\nvalue = random.random()\nfor x in {1, 2}:\n    pass\n",
            path="<fixture>", module="repro.sim.fixture",
        )
        findings = run_rules([source], all_rules())
        assert [f.rule_id for f in findings] == ["DET001", "DET002"]
        assert findings[0].line <= findings[1].line


class TestCli:
    def write(self, tmp_path, name, text):
        target = tmp_path / name
        target.write_text(dedent(text))
        return target

    def test_clean_file_exits_zero(self, tmp_path):
        target = self.write(tmp_path, "clean.py", "VALUE = 1\n")
        stream = io.StringIO()
        assert main([str(target)], stream=stream) == 0
        assert "0 findings" in stream.getvalue()

    def test_findings_exit_one_and_render_location(self, tmp_path):
        package = tmp_path / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        dirty = package / "dirty.py"
        dirty.write_text("import random\nvalue = random.random()\n")
        stream = io.StringIO()
        assert main([str(dirty)], stream=stream) == 1
        output = stream.getvalue()
        assert "DET001" in output and "dirty.py:2" in output
        assert "1 finding\n" in output

    def test_json_format_is_machine_readable(self, tmp_path):
        package = tmp_path / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "dirty.py").write_text("from time import monotonic\n")
        stream = io.StringIO()
        assert main([str(package), "--format", "json"], stream=stream) == 1
        report = json.loads(stream.getvalue())
        assert report["count"] == 1
        assert report["findings"][0]["rule"] == "DET001"

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        target = self.write(tmp_path, "broken.py", "def broken(:\n")
        stream = io.StringIO()
        assert main([str(target)], stream=stream) == 1
        assert PARSE_RULE_ID in stream.getvalue()

    def test_rule_selection_narrows_the_run(self, tmp_path):
        package = tmp_path / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "dirty.py").write_text("import random\nvalue = random.random()\nxs = sum({1, 2})\n")
        stream = io.StringIO()
        assert main([str(package), "--rules", "DET002"], stream=stream) == 1
        output = stream.getvalue()
        assert "DET002" in output and "DET001" not in output

    def test_unknown_rule_id_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--rules", "NOPE999"])
        assert excinfo.value.code == 2

    def test_list_rules_prints_the_catalogue(self):
        stream = io.StringIO()
        assert main(["--list-rules"], stream=stream) == 0
        output = stream.getvalue()
        for rule in all_rules():
            assert rule.id in output
        assert "scope: repro, benchmarks, examples" in output


# ---------------------------------------------------------------------------
# The gate: the shipped tree scans clean
# ---------------------------------------------------------------------------


class TestSelfScan:
    def test_src_tree_has_no_findings(self):
        stream = io.StringIO()
        status = main([str(REPO_ROOT / "src")], stream=stream)
        assert status == 0, f"src/ must scan clean:\n{stream.getvalue()}"

    def test_full_gated_surface_has_no_findings(self):
        # The CI surface: src plus the driver trees (benchmarks,
        # examples) — the same set the CLI scans with no arguments.
        paths = [str(REPO_ROOT / name) for name in ("src", "benchmarks", "examples")]
        stream = io.StringIO()
        status = main(paths, stream=stream)
        assert status == 0, f"the gated trees must scan clean:\n{stream.getvalue()}"
