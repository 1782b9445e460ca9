"""The documentation stays true: README snippets run, indexes stay complete.

Documentation drifts unless something executable pins it.  This suite:

* **compiles** every fenced ``python`` block in ``README.md`` and
  ``docs/results.md`` (syntax rot fails loudly);
* **executes** the blocks whose first line is the ``# runnable`` marker,
  in a temporary working directory — the quickstart pipeline in the
  README really simulates, persists, renders and compares;
* pins the README's paper-figure index and environment-variable table
  against the code (the ``ALL_FIGURES`` records, the env vars the
  harness actually reads), and exercises ``--list-figures``;
* pins the ``mypy --strict`` file list in ``docs/checks.md`` against
  the one CI runs.

Convention for doc authors: mark a snippet ``# runnable`` only if it is
self-contained, fast (a few seconds), and writes nothing outside its
working directory.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = ("README.md", "docs/results.md", "docs/distributed.md", "docs/faults.md")

RUNNABLE_MARKER = "# runnable"
_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def python_blocks(doc: str):
    text = (REPO_ROOT / doc).read_text()
    return [match.group(1).strip() for match in _FENCE.finditer(text)]


def all_blocks():
    return [
        pytest.param(doc, index, block, id=f"{doc}#{index}")
        for doc in DOC_FILES
        for index, block in enumerate(python_blocks(doc))
    ]


class TestSnippets:
    def test_docs_contain_python_snippets(self):
        assert python_blocks("README.md"), "README lost its python snippets"
        runnable = [
            block
            for doc in DOC_FILES
            for block in python_blocks(doc)
            if block.startswith(RUNNABLE_MARKER)
        ]
        assert runnable, "no snippet is marked # runnable - the docs are untested prose"

    @pytest.mark.parametrize("doc,index,block", all_blocks())
    def test_snippet_compiles(self, doc, index, block):
        compile(block, f"{doc}:block{index}", "exec")

    @pytest.mark.parametrize(
        "doc,index,block",
        [param for param in all_blocks() if param.values[2].startswith(RUNNABLE_MARKER)],
    )
    def test_runnable_snippet_executes(self, doc, index, block, tmp_path, monkeypatch):
        # Run in a scratch cwd so out_dir-style snippets stay contained.
        monkeypatch.chdir(tmp_path)
        exec(compile(block, f"{doc}:block{index}", "exec"), {"__name__": "__doc_snippet__"})


class TestReadmeIndexes:
    README = (REPO_ROOT / "README.md").read_text()

    def test_paper_figure_index_is_complete(self):
        from repro.experiments.presets import ALL_FIGURES

        for job in ALL_FIGURES:
            assert f"`figures.{job.name}`" in self.README, f"README index misses {job.name}"
            assert job.description in self.README, f"README index misses {job.name}'s description"
            assert job.kind in ("metric", "trace")

    def test_env_var_table_names_the_real_knobs(self):
        # Two-way: every REPRO_* variable the code mentions has a row in
        # the README table, and every row names a variable the code
        # still mentions.  A name ending in "_" is a glob fragment
        # (e.g. ``REPRO_PLOTS_*``), not a variable.
        section = self.README.split("## Benchmarks and environment variables", 1)[1].split("\n## ", 1)[0]
        documented = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `REPRO_")}
        mentioned = set()
        for root in ("src", "benchmarks", "examples"):
            for path in (REPO_ROOT / root).rglob("*.py"):
                mentioned.update(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
        assert documented == {name for name in mentioned if not name.endswith("_")}

    def test_install_command_matches_the_extras(self):
        # Two-way: the README's install command names exactly the extras
        # pyproject.toml defines.  tomllib is 3.11+; a text parse keeps
        # this 3.10-compatible.
        commands = re.findall(r'pip install -e "\.\[([a-z,]+)\]"', self.README)
        assert len(commands) == 1, commands
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        section = pyproject.split("[project.optional-dependencies]\n", 1)[1].split("\n[", 1)[0]
        defined = re.findall(r"^([a-z]+) = \[", section, flags=re.MULTILINE)
        assert sorted(commands[0].split(",")) == sorted(defined)

    def test_architecture_layers_section_names_the_real_layers(self):
        # The "Architecture layers" prose and the machine-checked DAG
        # (repro.checks.layers.LAYERS, enforced by test_layers.py) must not
        # drift: every declared layer is named in the README section.
        from repro.checks.layers import LAYERS

        assert "## Architecture layers" in self.README
        section = self.README.split("## Architecture layers", 1)[1].split("\n## ", 1)[0]
        for layer in LAYERS:
            if not layer:
                continue  # the package root has no prose name
            assert f"`{layer}`" in section, f"README layer map misses `{layer}`"
        assert "tests/test_layers.py" in section

    def test_results_doc_is_linked_and_exists(self):
        assert "docs/results.md" in self.README
        assert (REPO_ROOT / "docs" / "results.md").exists()

    def test_distributed_doc_is_cross_linked(self):
        # The distributed-execution doc is reachable from the README
        # and from the run-directory doc, and its backend row replaced
        # the stale "API stub" caveat.
        assert "docs/distributed.md" in self.README
        assert (REPO_ROOT / "docs" / "distributed.md").exists()
        assert "distributed.md" in (REPO_ROOT / "docs" / "results.md").read_text()
        assert "API stub" not in self.README
        from repro.experiments.backends import ProcessBackend

        assert "stub" not in (ProcessBackend.__doc__ or "").lower()
        # "endpoint is reserved for a future remote scheduler" is gone
        # ("preserved" is fine — hence the word boundary).
        assert not re.search(r"\breserved\b", (ProcessBackend.__doc__ or "").lower())

    def test_backend_table_names_exactly_the_registered_backends(self):
        # One row per backend class: serial and the process scheduler.
        section = self.README.split("## Backends and presets", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        assert [row.split("`")[1] for row in rows] == ["SerialBackend", "ProcessBackend"]

    def test_distributed_doc_describes_the_consumer_driven_loop(self):
        doc = (REPO_ROOT / "docs" / "distributed.md").read_text()
        assert "asyncio" not in doc
        assert "runs in the consumer's thread" in doc
        assert "RuntimeError" in doc  # one open stream per backend

    def test_faults_doc_is_cross_linked_and_complete(self):
        # The fault-injection doc is reachable from the README and pins
        # the real taxonomy and workload registry.
        assert "docs/faults.md" in self.README
        doc = (REPO_ROOT / "docs" / "faults.md").read_text()

        from repro.experiments.presets import WORKLOAD_JOBS
        from repro.sim.faults import FAULT_KINDS

        for kind in FAULT_KINDS:
            assert f"`{kind}`" in doc, f"faults.md misses fault kind `{kind}`"
        for job in WORKLOAD_JOBS:
            assert f"`{job.name}`" in doc, f"faults.md misses workload `{job.name}`"
            assert job.description in doc, f"faults.md misses {job.name}'s description"
            assert job.kind == "metric"
        # The resilience columns the workloads emit are documented.
        for column in ("outage_delivery_ratio", "post_heal_recovery_s", "goodput_vs_baseline"):
            assert column in doc, f"faults.md misses the {column} column"
        # Both sides of the cross-link between the two failure docs.
        assert "distributed.md" in doc
        assert "bench_faults.py" in doc

    def test_readme_workload_section_matches_the_registry(self):
        from repro.experiments.presets import WORKLOAD_JOBS

        for job in WORKLOAD_JOBS:
            assert f"`{job.name}`" in self.README, f"README workload list misses `{job.name}`"


class TestChecksDoc:
    @staticmethod
    def mypy_paths(text: str) -> list:
        """The paths of the first ``mypy --strict`` command in ``text``."""
        command = text.split("mypy --strict --follow-imports=silent", 1)[1]
        paths = []
        for line in command.splitlines()[1:]:
            tokens = line.replace("\\", " ").split()
            if not tokens or not all(token.startswith("src/") for token in tokens):
                break
            paths.extend(tokens)
        return sorted(paths)

    def test_mypy_file_list_matches_ci(self):
        # docs/checks.md restates CI's mypy --strict step; the two file
        # lists must not drift.
        ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        doc = (REPO_ROOT / "docs" / "checks.md").read_text()
        assert self.mypy_paths(ci)
        assert self.mypy_paths(doc) == self.mypy_paths(ci)


class TestListFiguresCli:
    def test_list_figures_prints_the_index(self, capsys):
        from repro.experiments.presets import ALL_FIGURES
        from repro.experiments.report import main

        assert main(["--list-figures"]) == 0
        output = capsys.readouterr().out
        for job in ALL_FIGURES:
            assert job.name in output
            assert job.description in output

    def test_list_figures_prints_the_workloads_too(self, capsys):
        from repro.experiments.presets import WORKLOAD_JOBS
        from repro.experiments.report import main

        assert main(["--list-figures"]) == 0
        output = capsys.readouterr().out
        for job in WORKLOAD_JOBS:
            assert job.name in output
            assert job.description in output

    def test_run_dir_still_required_without_the_flag(self):
        from repro.experiments.report import main

        with pytest.raises(SystemExit):
            main([])
