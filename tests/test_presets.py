"""Paper-scale presets and the run_paper driver."""

import pytest
from typing import ClassVar, Dict, Set

from repro.experiments.backends import SerialBackend
from repro.experiments.parallel import spawn_seeds
from repro.experiments.presets import (
    ALL_FIGURES,
    PAPER_LINEAR,
    PAPER_RANDOM,
    SMOKE_LINEAR,
    SMOKE_RANDOM,
    WORKLOAD_JOBS,
    preset_seeds,
    run_paper,
)
from repro.experiments.results import load_run

METRIC_JOBS = [job for job in ALL_FIGURES + WORKLOAD_JOBS if job.kind == "metric"]
TRACE_JOBS = [job for job in ALL_FIGURES if job.kind == "trace"]


class TestPresetSeeds:
    def test_paper_counts_match_the_paper(self):
        # Section 4: twenty runs per linear figure cell, ten per random one.
        assert PAPER_LINEAR == 20
        assert PAPER_RANDOM == 10
        assert len(preset_seeds("paper", family="linear")) == PAPER_LINEAR
        assert len(preset_seeds("paper", family="random")) == PAPER_RANDOM

    def test_paper_seeds_are_the_spawned_seeds(self):
        assert preset_seeds("paper", family="linear") == tuple(spawn_seeds(0, PAPER_LINEAR))
        assert preset_seeds("paper", family="linear", base_seed=7) == tuple(spawn_seeds(7, PAPER_LINEAR))

    def test_smoke_seeds_are_the_historical_bench_seeds(self):
        assert preset_seeds("smoke", family="linear") == (1, 2)
        assert preset_seeds("smoke", family="random") == (1,)
        assert SMOKE_LINEAR == 2
        assert SMOKE_RANDOM == 1

    def test_int_count_expands_deterministically(self):
        assert preset_seeds(4) == tuple(spawn_seeds(0, 4))
        assert len(set(preset_seeds(4))) == 4

    def test_explicit_sequence_passes_through(self):
        assert preset_seeds([5, 6, 7]) == (5, 6, 7)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_seeds("full")
        with pytest.raises(ValueError):
            preset_seeds("paper", family="ring")


class TestMetricFigures:
    def test_covers_the_metric_only_figures(self):
        names = [job.name for job in ALL_FIGURES if job.kind == "metric"]
        assert names == [
            "figure3",
            "figure4",
            "figure4b",
            "figure6",
            "figure9",
            "figure10",
            "figure11",
            "table2",
        ]

    def test_every_job_resolves_to_a_figure_function(self):
        # Every metric record, paper figure or workload, names a module
        # exposing its <name>_plan builder and its generated <name> function.
        import importlib

        for job in METRIC_JOBS:
            assert callable(job.planner())
            assert callable(getattr(importlib.import_module(job.module), job.name))
            assert job.family in ("linear", "random")

    def test_direct_call_with_empty_seeds_raises(self):
        # An explicit empty seed list is an error, as it is for run_paper,
        # not a request for the smoke preset.
        from repro.experiments import figures

        with pytest.raises(ValueError, match="at least one seed is required"):
            figures.table2(seeds=[], workers=0)

    def test_covers_the_trace_figures(self):
        assert [job.name for job in TRACE_JOBS] == [
            "figure3c",
            "figure5",
            "figure7",
            "figure8",
        ]
        for job in TRACE_JOBS:
            assert callable(job.rows_func())

    def test_every_job_has_a_one_line_description(self):
        # --list-figures and the README index both print this field.
        for job in ALL_FIGURES + WORKLOAD_JOBS:
            assert job.description, job.name
            assert "\n" not in job.description

    def test_figure_index_mirrors_all_figures(self):
        # The --list-figures index prints the records in paper order.
        from repro.experiments.report import format_figure_index

        lines = format_figure_index().splitlines()
        listed = [line.split()[0] for line in lines[3 : 3 + len(ALL_FIGURES)]]
        assert listed == [job.name for job in ALL_FIGURES]
        assert all(job.kind in ("metric", "trace") for job in ALL_FIGURES)

    def test_all_figures_is_every_figure_in_paper_order(self):
        assert [job.name for job in ALL_FIGURES] == [
            "figure3",
            "figure3c",
            "figure4",
            "figure4b",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "table2",
        ]


class TestRunPaper:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_paper(figures=["figure3", "figure99"])

    def test_duplicate_figures_rejected(self):
        # A duplicate would be simulated twice and silently collapsed
        # into one results entry.
        with pytest.raises(ValueError):
            run_paper(figures=["figure3", "figure3"])

    def test_smoke_subset_runs_through_one_backend(self):
        rows_by_figure = run_paper(
            figures=["table2"],
            seeds="smoke",
            backend=SerialBackend(),
        )
        assert set(rows_by_figure) == {"table2"}
        rows = rows_by_figure["table2"]
        assert [row["protocol"] for row in rows] == ["jtp", "atp", "tcp"]
        for row in rows:
            assert row["goodput_kbps"] > 0

    def test_results_are_backend_independent(self):
        kwargs = {
            "figures": ["figure4b"],
            "seeds": "smoke",
            "overrides": {"figure4b": {"num_nodes": 3, "transfer_bytes": 4_000, "duration": 80}},
        }
        serial = run_paper(backend=SerialBackend(), **kwargs)
        pooled = run_paper(workers=2, **kwargs)
        assert pooled == serial

    def test_workers_and_backend_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            run_paper(figures=["table2"], backend=SerialBackend(), workers=2)

    def test_batched_submission_matches_per_figure_runs(self):
        # Two metric figures through one run_paper call (one batched
        # run_grids submission) must produce the same rows as running
        # each figure alone.
        overrides = {
            "figure4b": {"num_nodes": 3, "transfer_bytes": 4_000, "duration": 80},
            "table2": {"num_nodes": 6, "duration": 120},
        }
        kwargs = {"seeds": "smoke", "overrides": overrides}
        combined = run_paper(figures=["figure4b", "table2"], backend=SerialBackend(), **kwargs)
        alone_4b = run_paper(figures=["figure4b"], backend=SerialBackend(), **kwargs)
        alone_t2 = run_paper(figures=["table2"], backend=SerialBackend(), **kwargs)
        assert combined["figure4b"] == alone_4b["figure4b"]
        assert combined["table2"] == alone_t2["table2"]

    @pytest.mark.parametrize("job", METRIC_JOBS, ids=lambda job: job.name)
    def test_direct_call_matches_run_paper(self, job):
        # figures.figureN / workloads.<family> are generated from the
        # job's record and must compute exactly what run_paper does.
        import importlib

        alias = getattr(importlib.import_module(job.module), job.name)
        assert alias.__name__ == job.name
        direct = alias(seeds=preset_seeds("smoke", job.family), backend=SerialBackend(), **job.smoke_kwargs)
        assert direct == run_paper(figures=[job.name], seeds="smoke", backend=SerialBackend())[job.name]

    def test_misspelled_override_key_rejected(self):
        # An override for a name no figure or workload has would run the
        # intended figure at its defaults without a word.
        with pytest.raises(ValueError, match="tabel2"):
            run_paper(
                figures=["table2"], seeds="smoke", backend=SerialBackend(), overrides={"tabel2": {"num_nodes": 6}}
            )

    def test_out_dir_persists_a_loadable_run(self, tmp_path):
        results = run_paper(
            figures=["table2"],
            seeds="smoke",
            backend=SerialBackend(),
            overrides={"table2": {"num_nodes": 6, "duration": 120}},
            out_dir=tmp_path / "run",
        )
        stored = load_run(tmp_path / "run")
        assert stored.rows == results
        assert stored.manifest["figures"] == ["table2"]
        assert stored.metadata["backend"] == "serial"
        assert stored.metadata["seeds_arg"] == "smoke"
        assert stored.metadata["seeds"]["random"] == [1]
        assert stored.metadata["figure_params"]["table2"]["num_nodes"] == 6


class TestRunPaperProgress:
    OVERRIDES: ClassVar[Dict[str, Dict[str, object]]] = {
        "figure4b": {"num_nodes": 3, "transfer_bytes": 4_000, "duration": 80},
        "table2": {"num_nodes": 6, "duration": 120},
        "figure3c": {"num_nodes": 4, "transfer_bytes": 8_000, "duration": 80},
    }

    def run(self, **kwargs):
        events = []
        results = run_paper(
            figures=list(self.OVERRIDES),
            seeds="smoke",
            overrides=self.OVERRIDES,
            progress=lambda name, done, total: events.append((name, done, total)),
            **kwargs,
        )
        return results, events

    def test_every_figure_announces_then_completes(self):
        _, events = self.run(backend=SerialBackend())
        # Metric figures: an announcement (0/total) then one event per
        # cell; figure4b has 2 specs x 2 seeds, table2 3 specs x 1 seed.
        assert events[:2] == [("figure4b", 0, 4), ("table2", 0, 3)]
        for name, total in (("figure4b", 4), ("table2", 3)):
            counts = [done for n, done, _ in events if n == name]
            assert counts == list(range(total + 1))
            assert all(t == total for n, _, t in events if n == name)
        # Trace figures are one in-process job: announced, then done.
        assert [e for e in events if e[0] == "figure3c"] == [("figure3c", 0, 1), ("figure3c", 1, 1)]

    def test_progress_leaves_rows_bit_identical(self):
        noisy, _ = self.run(backend=SerialBackend())
        silent = run_paper(
            figures=list(self.OVERRIDES),
            seeds="smoke",
            overrides=self.OVERRIDES,
            backend=SerialBackend(),
        )
        assert noisy == silent

    def test_progress_streams_from_the_process_pool_too(self):
        results, events = self.run(workers=2)
        serial, serial_events = self.run(backend=SerialBackend())
        assert results == serial
        assert events == serial_events  # submission order, not completion order


class TestRunPaperTraceFigures:
    #: The stable row schema of each serial trace figure's adapter.
    EXPECTED_KEYS: ClassVar[Dict[str, Set[str]]] = {
        "figure3c": {"protocol", "time", "attempts"},
        "figure5": {"variant", "series", "time", "rate_pps"},
        "figure7": {"feedback", "feedback_rate_pps", "energy_mJ", "queue_drops", "acks", "delivered_fraction"},
        "figure8": {"series", "time", "value"},
    }

    def test_trace_figures_run_under_run_paper_with_stable_schemas(self):
        results = run_paper(
            figures=list(self.EXPECTED_KEYS),
            seeds="smoke",
            backend=SerialBackend(),
        )
        assert list(results) == list(self.EXPECTED_KEYS)
        for name, rows in results.items():
            assert rows, f"{name} produced no rows"
            for row in rows:
                assert set(row) == self.EXPECTED_KEYS[name], name

    def test_trace_rows_are_json_scalars(self):
        # The results store persists every figure; trace rows must hold
        # flat scalars only (no tuples, objects or nested containers).
        results = run_paper(figures=["figure3c"], seeds="smoke", backend=SerialBackend())
        for row in results["figure3c"]:
            for value in row.values():
                assert isinstance(value, (int, float, str, type(None)))
