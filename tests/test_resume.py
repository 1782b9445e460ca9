"""Incremental re-runs: the per-cell cache under ``run_paper(out_dir=…)``.

The contract under test: a persisted run that dies partway can be
rerun against the same directory and only simulates the cells it is
missing — proved by counting caller-visible submissions on the backend
(``tasks_submitted``) — while producing row stores byte-identical to a
never-interrupted run.  The cache must also know when *not* to be
used: changed provenance, ``resume=False``, or a corrupt cell file all
force recomputation rather than serving wrong rows.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.backends import ProcessBackend, SerialBackend
from repro.experiments.parallel import ScenarioRecord
from repro.experiments.presets import _JOBS_BY_NAME, preset_seeds, run_paper
from repro.experiments.results import CELLS_DIR_NAME, CellStore, cell_key

FIGURES = ["figure4b", "table2"]
#: figure4b: 2 specs x 2 smoke seeds; table2: 3 specs x 1 smoke seed.
TOTAL_CELLS = 7
TRACE_FIGURES = ["figure3c", "figure5", "figure7", "figure8"]


def paper_smoke(out_dir, figures=FIGURES, **kwargs):
    return run_paper(figures=figures, seeds="smoke", out_dir=out_dir, **kwargs)


def figure_bytes(directory, figures=FIGURES):
    """Row-store payloads per figure (JSON and CSV), manifest excluded."""
    directory = Path(directory)
    payloads = {}
    for name in figures:
        payloads[f"{name}.json"] = (directory / f"{name}.json").read_bytes()
        payloads[f"{name}.csv"] = (directory / f"{name}.csv").read_bytes()
    return payloads


def cells_metadata(directory):
    manifest = json.loads((Path(directory) / "manifest.json").read_text())
    return manifest["metadata"]["cells"]


class Interrupted(Exception):
    pass


class InterruptAfter:
    """A progress callback that raises once N completion events arrived."""

    def __init__(self, completions):
        self.completions = completions
        self.seen = 0

    def __call__(self, figure, done, total):
        if done > 0:
            self.seen += 1
            if self.seen >= self.completions:
                raise Interrupted()


class TestResume:
    @pytest.mark.parametrize(
        ("figures", "total_cells"),
        [
            pytest.param(FIGURES, TOTAL_CELLS, id="figure4b+table2"),
            # A resilience workload: its FaultPlans travel inside the
            # cell params, so cached fault cells must resume too.
            # 2 outages x 2 protocols x 2 smoke seeds.
            pytest.param(["partition_heal"], 8, id="partition_heal"),
        ],
    )
    def test_interrupted_run_resumes_without_recomputing(self, tmp_path, figures, total_cells):
        reference = tmp_path / "reference"
        interrupted = tmp_path / "interrupted"
        paper_smoke(reference, figures)

        with pytest.raises(Interrupted):
            paper_smoke(interrupted, figures, progress=InterruptAfter(3))
        persisted = len(list((interrupted / CELLS_DIR_NAME).glob("*.pkl")))
        assert 0 < persisted < total_cells, "the interrupt must land mid-run"

        backend = SerialBackend()
        paper_smoke(interrupted, figures, backend=backend)
        # Only the missing cells were simulated...
        assert backend.tasks_submitted == total_cells - persisted
        assert cells_metadata(interrupted) == {
            "reused": persisted,
            "computed": total_cells - persisted,
        }
        # ...and the resumed run's rows are byte-identical to a run
        # that was never interrupted.
        assert figure_bytes(interrupted, figures) == figure_bytes(reference, figures)

    def test_complete_rerun_simulates_nothing(self, tmp_path):
        out = tmp_path / "run"
        paper_smoke(out)
        backend = SerialBackend()
        paper_smoke(out, backend=backend)
        assert backend.tasks_submitted == 0
        assert cells_metadata(out) == {"reused": TOTAL_CELLS, "computed": 0}

    def test_cached_cells_reported_as_progress_burst(self, tmp_path):
        out = tmp_path / "run"
        paper_smoke(out)
        events = []
        paper_smoke(out, progress=lambda *event: events.append(event))
        # Every figure still walks 0..total with no holes, cache or not.
        for name, total in (("figure4b", 4), ("table2", 3)):
            counts = [done for figure, done, _ in events if figure == name]
            assert counts == list(range(total + 1))

    def test_resume_false_recomputes_but_repersists(self, tmp_path):
        out = tmp_path / "run"
        paper_smoke(out)
        backend = SerialBackend()
        paper_smoke(out, backend=backend, resume=False)
        assert backend.tasks_submitted == TOTAL_CELLS
        assert cells_metadata(out) == {"reused": 0, "computed": TOTAL_CELLS}
        # The fresh cells were persisted: a third run reuses them all.
        backend = SerialBackend()
        paper_smoke(out, backend=backend)
        assert backend.tasks_submitted == 0

    def test_changed_provenance_invalidates_the_cache(self, tmp_path):
        out = tmp_path / "run"
        paper_smoke(out)
        backend = SerialBackend()
        overrides = {"figure4b": {"transfer_bytes": 60_000}}
        paper_smoke(out, backend=backend, overrides=overrides)
        # figure_params changed, so *no* cached cell may be served —
        # not even table2's, whose parameters happen to be unchanged:
        # the cache is valid only for a whole matching run.
        assert backend.tasks_submitted == TOTAL_CELLS
        assert cells_metadata(out)["reused"] == 0

    def test_corrupt_cell_is_recomputed_not_served(self, tmp_path):
        out = tmp_path / "run"
        paper_smoke(out)
        reference = figure_bytes(out)
        victim = sorted((out / CELLS_DIR_NAME).glob("*.pkl"))[0]
        victim.write_bytes(b"not a pickle")
        backend = SerialBackend()
        paper_smoke(out, backend=backend)
        assert backend.tasks_submitted == 1
        assert cells_metadata(out) == {"reused": TOTAL_CELLS - 1, "computed": 1}
        assert figure_bytes(out) == reference

    @pytest.mark.parametrize("damage", ["truncated", "renamed_class"])
    def test_unreadable_cell_is_deleted_and_recomputed(self, tmp_path, monkeypatch, damage):
        out = tmp_path / "run"
        paper_smoke(out)
        reference = figure_bytes(out)
        victim = sorted((out / CELLS_DIR_NAME).glob("*.pkl"))[0]
        record = pickle.loads(victim.read_bytes())
        if damage == "truncated":
            victim.write_bytes(victim.read_bytes()[:-7])
            with pytest.raises(pickle.UnpicklingError, match="truncated"):
                pickle.loads(victim.read_bytes())
        else:
            # The record as an older checkout would have pickled it,
            # under a class name this one no longer has.
            with monkeypatch.context() as patch:
                patch.setattr(parallel, "LegacyScenarioRecord", ScenarioRecord, raising=False)
                ScenarioRecord.__qualname__ = "LegacyScenarioRecord"
                try:
                    victim.write_bytes(pickle.dumps(record))
                finally:
                    ScenarioRecord.__qualname__ = "ScenarioRecord"
            with pytest.raises(AttributeError, match="LegacyScenarioRecord"):
                pickle.loads(victim.read_bytes())
        backend = SerialBackend()
        paper_smoke(out, backend=backend)
        assert backend.tasks_submitted == 1
        assert pickle.loads(victim.read_bytes()) == record
        assert figure_bytes(out) == reference

    def test_trace_figures_resume_from_the_cache(self, tmp_path):
        # figure3c 2 tolerances, figure5 back-off on/off, figure7 2
        # constant rates + variable, figure8 one run: 8 cells, each at
        # its figure's own seed.
        out = tmp_path / "run"
        paper_smoke(out, TRACE_FIGURES, backend=SerialBackend())
        assert cells_metadata(out) == {"reused": 0, "computed": 8}
        reference = figure_bytes(out, TRACE_FIGURES)
        for path in (out / CELLS_DIR_NAME).glob("*.pkl"):
            record = pickle.loads(path.read_bytes())
            assert record.rows and record.metrics.link_transmissions > 0
        backend = SerialBackend()
        paper_smoke(out, TRACE_FIGURES, backend=backend)
        assert backend.tasks_submitted == 0
        assert cells_metadata(out) == {"reused": 8, "computed": 0}
        assert figure_bytes(out, TRACE_FIGURES) == reference


def figure_keys(name):
    """Every cell key of one figure at the smoke preset."""
    job = _JOBS_BY_NAME[name]
    seeds = preset_seeds("smoke", family=job.family)
    plan = job.planner()(**job.smoke_kwargs)
    return [cell_key(name, spec.scenario, spec.params, seed) for spec in plan.specs for seed in seeds]


class TestSharedCells:
    """figure4b's smoke cells are all figure4's: simulated once, persisted twice."""

    FIGURES = ("figure4", "figure4b")

    def test_every_figure_key_is_persisted(self, tmp_path):
        out = tmp_path / "run"
        backend = SerialBackend()
        paper_smoke(out, list(self.FIGURES), backend=backend)
        # 8 figure4 cells, 4 figure4b cells that repeat 4 of them.
        assert backend.tasks_submitted == 8
        assert cells_metadata(out) == {"reused": 0, "computed": 12}
        for name in self.FIGURES:
            for key in figure_keys(name):
                assert (out / CELLS_DIR_NAME / f"{key}.pkl").exists(), name

    def test_twin_in_the_cache_spares_the_cell(self, tmp_path):
        out = tmp_path / "run"
        paper_smoke(out, list(self.FIGURES))
        reference = figure_bytes(out, self.FIGURES)
        for key in figure_keys("figure4b"):
            (out / CELLS_DIR_NAME / f"{key}.pkl").unlink()
        backend = SerialBackend()
        paper_smoke(out, list(self.FIGURES), backend=backend)
        assert backend.tasks_submitted == 0
        # figure4b's cells came from figure4's and were re-persisted.
        assert cells_metadata(out) == {"reused": 8, "computed": 4}
        assert all((out / CELLS_DIR_NAME / f"{key}.pkl").exists() for key in figure_keys("figure4b"))
        assert figure_bytes(out, self.FIGURES) == reference


class TestCrossBackendResume:
    """Cell provenance is backend-agnostic: a sweep interrupted on one
    backend resumes on another, computing only the missing cells and
    producing byte-identical rows."""

    def test_process_interrupt_resumes_on_serial(self, tmp_path):
        reference = tmp_path / "reference"
        interrupted = tmp_path / "interrupted"
        paper_smoke(reference)

        with ProcessBackend(workers=2) as backend:
            with pytest.raises(Interrupted):
                paper_smoke(interrupted, backend=backend, progress=InterruptAfter(3))
        persisted = len(list((interrupted / CELLS_DIR_NAME).glob("*.pkl")))
        assert 0 < persisted < TOTAL_CELLS, "the interrupt must land mid-run"

        backend = SerialBackend()
        paper_smoke(interrupted, backend=backend)
        assert backend.tasks_submitted == TOTAL_CELLS - persisted
        assert cells_metadata(interrupted) == {
            "reused": persisted,
            "computed": TOTAL_CELLS - persisted,
        }
        assert figure_bytes(interrupted) == figure_bytes(reference)

    def test_serial_interrupt_resumes_on_process(self, tmp_path):
        reference = tmp_path / "reference"
        interrupted = tmp_path / "interrupted"
        paper_smoke(reference)

        with pytest.raises(Interrupted):
            paper_smoke(interrupted, progress=InterruptAfter(3))
        persisted = len(list((interrupted / CELLS_DIR_NAME).glob("*.pkl")))
        assert 0 < persisted < TOTAL_CELLS, "the interrupt must land mid-run"

        with ProcessBackend(workers=2) as backend:
            paper_smoke(interrupted, backend=backend)
        assert backend.tasks_submitted == TOTAL_CELLS - persisted
        assert cells_metadata(interrupted) == {
            "reused": persisted,
            "computed": TOTAL_CELLS - persisted,
        }
        assert figure_bytes(interrupted) == figure_bytes(reference)


class TestCellStore:
    PROVENANCE = {"seeds": [1, 2], "base_seed": 0}

    def test_roundtrip_and_counters(self, tmp_path):
        store = CellStore(tmp_path, self.PROVENANCE)
        key = cell_key("figure4", "linear", {"num_nodes": 5}, 1)
        assert store.get(key) is None
        store.put(key, {"energy": 1.5})
        assert store.stored == 1
        assert store.get(key) == {"energy": 1.5}
        assert store.hits == 1

    def test_survives_reopen_with_same_provenance(self, tmp_path):
        key = cell_key("figure4", "linear", {}, 1)
        CellStore(tmp_path, self.PROVENANCE).put(key, "payload")
        assert CellStore(tmp_path, self.PROVENANCE).get(key) == "payload"

    def test_provenance_mismatch_clears_everything(self, tmp_path):
        key = cell_key("figure4", "linear", {}, 1)
        CellStore(tmp_path, self.PROVENANCE).put(key, "payload")
        changed = CellStore(tmp_path, {"seeds": [1, 2], "base_seed": 7})
        assert changed.get(key) is None

    def test_resume_false_clears_everything(self, tmp_path):
        key = cell_key("figure4", "linear", {}, 1)
        CellStore(tmp_path, self.PROVENANCE).put(key, "payload")
        fresh = CellStore(tmp_path, self.PROVENANCE, resume=False)
        assert fresh.get(key) is None

    def test_unreadable_cell_is_deleted(self, tmp_path):
        store = CellStore(tmp_path, self.PROVENANCE)
        key = cell_key("figure4", "linear", {}, 1)
        store.put(key, "payload")
        path = store.directory / f"{key}.pkl"
        path.write_bytes(b"garbage")
        assert store.get(key) is None
        assert not path.exists()


    def test_unrelated_errors_propagate(self, tmp_path, monkeypatch):
        store = CellStore(tmp_path, self.PROVENANCE)
        key = cell_key("figure4", "linear", {}, 1)
        store.put(key, "payload")

        def broken(raw):
            raise RuntimeError("not a cell problem")

        monkeypatch.setattr(pickle, "loads", broken)
        with pytest.raises(RuntimeError, match="not a cell problem"):
            store.get(key)
        assert (store.directory / f"{key}.pkl").exists()


class TestCellKey:
    def test_depends_on_every_field(self):
        base = cell_key("figure4", "linear", {"num_nodes": 5}, 1)
        assert cell_key("figure4", "linear", {"num_nodes": 5}, 1) == base
        assert cell_key("figure9", "linear", {"num_nodes": 5}, 1) != base
        assert cell_key("figure4", "random", {"num_nodes": 5}, 1) != base
        assert cell_key("figure4", "linear", {"num_nodes": 7}, 1) != base
        assert cell_key("figure4", "linear", {"num_nodes": 5}, 2) != base

    def test_insensitive_to_param_order(self):
        a = cell_key("figure4", "linear", {"a": 1, "b": 2}, 1)
        b = cell_key("figure4", "linear", {"b": 2, "a": 1}, 1)
        assert a == b


class TestRunCli:
    def test_cli_run_resumes_from_the_cache(self, tmp_path, capsys):
        from repro.experiments.report import main

        out = tmp_path / "run"
        argv = [str(out), "--run", "--seeds", "smoke", "--figures",
                ",".join(FIGURES), "--workers", "0"]
        assert main(argv) == 0
        assert "computed: 7" in capsys.readouterr().out
        assert main(argv) == 0
        assert "reused from cache: 7" in capsys.readouterr().out
        # --fresh discards the cache and recomputes.
        assert main(argv + ["--fresh"]) == 0
        assert "computed: 7" in capsys.readouterr().out
        # The produced directory renders like any other stored run.
        assert main([str(out), "--max-rows", "2"]) == 0
        assert "figure4b" in capsys.readouterr().out
