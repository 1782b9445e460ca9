"""Parallel replication: records, specs, determinism, sweeps."""

import pickle
from typing import ClassVar, List, Tuple

import pytest

from repro.experiments.backends import ProcessBackend, SerialBackend
from repro.experiments.parallel import (
    ParallelRunner,
    ScenarioRecord,
    ScenarioSpec,
    spawn_seeds,
)
from repro.experiments.runner import summarize
from repro.experiments.scenarios import ScenarioResult

SMALL_LINEAR = {"num_nodes": 3, "transfer_bytes": 10_000, "num_flows": 1, "duration": 200}


class TestScenarioSpec:
    def test_spec_builds_a_scenario(self):
        result = ScenarioSpec("linear", SMALL_LINEAR)(seed=1)
        assert isinstance(result, ScenarioResult)
        assert result.metrics.num_nodes == 3

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("ring", {})

    def test_seed_in_params_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec("linear", {"num_nodes": 3, "seed": 1})

    def test_spec_is_picklable(self):
        spec = ScenarioSpec("linear", SMALL_LINEAR)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestScenarioRecord:
    def test_record_is_picklable_and_carries_metrics(self):
        spec = ScenarioSpec("linear", SMALL_LINEAR)
        record = ScenarioRecord.from_result(spec(seed=1), 1, spec.scenario, spec.params)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.seed == 1
        assert clone.scenario == "linear"
        assert clone.params["num_nodes"] == 3
        assert clone.metrics.energy_joules > 0

    def test_record_holds_no_simulator_state(self):
        spec = ScenarioSpec("linear", SMALL_LINEAR)
        record = ScenarioRecord.from_result(spec(seed=1), 1)
        assert not hasattr(record, "network")


class TestParallelRunner:
    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=-1)

    def test_workers_zero_and_one_mean_serial(self):
        # REPRO_WORKERS=0 plumbing resolves here: both 0 and 1 are the
        # in-process serial backend, no pool at all.
        assert isinstance(ParallelRunner(workers=0).backend, SerialBackend)
        assert isinstance(ParallelRunner(workers=1).backend, SerialBackend)

    def test_default_backend_is_shared_process_pool(self):
        import os

        first = ParallelRunner()
        second = ParallelRunner()
        if (os.cpu_count() or 1) > 1:
            # Consecutive figure calls share one persistent pool.
            assert isinstance(first.backend, ProcessBackend)
            assert first.backend is second.backend
        else:
            # One-core machines keep the historical serial execution.
            assert isinstance(first.backend, SerialBackend)

    def test_workers_and_backend_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=2, backend=SerialBackend())

    def test_replicate_requires_seeds(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=1).replicate(ScenarioSpec("linear", SMALL_LINEAR), [])

    def test_parallel_matches_serial_bit_identically(self):
        spec = ScenarioSpec("linear", SMALL_LINEAR)
        seeds = [1, 2, 3, 4]
        serial = ParallelRunner(workers=1).replicate(spec, seeds)
        parallel = ParallelRunner(workers=4).replicate(spec, seeds)
        assert parallel == serial
        for attribute in ("energy_per_bit_microjoules", "goodput_kbps", "delivered_fraction"):
            assert summarize(parallel, attribute) == summarize(serial, attribute)

    def test_run_grid_aligns_records_with_specs(self):
        specs = [
            ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size))
            for size in (3, 4)
        ]
        per_spec = ParallelRunner(workers=2).run_grid(specs, [1, 2])
        assert len(per_spec) == 2
        for spec, records in zip(specs, per_spec, strict=True):
            assert [r.seed for r in records] == [1, 2]
            assert all(r.metrics.num_nodes == spec.params["num_nodes"] for r in records)


class TestRunGrids:
    GRID_A: ClassVar[List[ScenarioSpec]] = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
    GRID_B: ClassVar[List[ScenarioSpec]] = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=5))]

    def test_batched_submission_matches_per_grid_bit_identically(self):
        # Uneven grids (different spec counts *and* seed counts) so the
        # round-robin interleave and the demux are both exercised —
        # serial, the shared pool and a private pool must all agree.
        runners = [ParallelRunner(workers=1), ParallelRunner(workers=2)]
        with ProcessBackend(workers=3) as private_backend:
            runners.append(ParallelRunner(backend=private_backend))
            reference = None
            for runner in runners:
                batched = runner.run_grids([(self.GRID_A, [1, 2]), (self.GRID_B, [3])])
                assert batched[0] == runner.run_grid(self.GRID_A, [1, 2])
                assert batched[1] == runner.run_grid(self.GRID_B, [3])
                if reference is None:
                    reference = batched
                assert batched == reference

    def test_batched_groups_align_with_their_grids(self):
        batched = ParallelRunner(workers=1).run_grids([(self.GRID_A, [1, 2]), (self.GRID_B, [3])])
        assert [len(groups) for groups in batched] == [2, 1]
        for spec, records in zip(self.GRID_A, batched[0], strict=True):
            assert [r.seed for r in records] == [1, 2]
            assert all(r.metrics.num_nodes == spec.params["num_nodes"] for r in records)
        assert [r.seed for r in batched[1][0]] == [3]

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=1).run_grids([(self.GRID_A, [])])

    def test_no_grids_is_empty(self):
        assert ParallelRunner(workers=1).run_grids([]) == []


class TestProgress:
    GRID_A: ClassVar[List[ScenarioSpec]] = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
    GRID_B: ClassVar[List[ScenarioSpec]] = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=5))]
    GRIDS: ClassVar[List[Tuple[List[ScenarioSpec], List[int]]]] = [(GRID_A, [1, 2]), (GRID_B, [3])]

    def test_progress_reports_every_cell_in_submission_order(self):
        events = []
        ParallelRunner(workers=1).run_grids(
            self.GRIDS, progress=lambda grid, done, total: events.append((grid, done, total))
        )
        # Round-robin interleave: grid 0 and grid 1 alternate until the
        # short grid runs dry, counts are per grid and totals fixed.
        assert events == [(0, 1, 4), (1, 1, 1), (0, 2, 4), (0, 3, 4), (0, 4, 4)]

    def test_progress_does_not_change_the_records(self):
        runner = ParallelRunner(workers=1)
        silent = runner.run_grids(self.GRIDS)
        noisy = runner.run_grids(self.GRIDS, progress=lambda *args: None)
        assert noisy == silent

    def test_progress_streams_on_every_backend(self):
        reference = None
        with ProcessBackend(workers=3) as private_backend:
            for runner in (
                ParallelRunner(workers=1),
                ParallelRunner(workers=2),
                ParallelRunner(backend=private_backend),
            ):
                events = []
                batched = runner.run_grids(
                    self.GRIDS, progress=lambda grid, done, total: events.append((grid, done, total))
                )
                # Identical event sequence (submission order, not
                # completion order) and identical records everywhere.
                assert events == [(0, 1, 4), (1, 1, 1), (0, 2, 4), (0, 3, 4), (0, 4, 4)]
                if reference is None:
                    reference = batched
                assert batched == reference

    def test_dispatch_runs_on_the_consumer_thread(self):
        # The scheduler's loop is driven by the consumer itself: no
        # dispatch or I/O helper thread exists while cells stream.
        import threading

        seen = []

        def progress(grid, done, total):
            seen.append(sorted(t.name for t in threading.enumerate() if t.name.startswith("repro-async")))

        with ProcessBackend(workers=2) as backend:
            ParallelRunner(backend=backend).run_grids(self.GRIDS, progress=progress)
        assert len(seen) == 5
        assert all(names == [] for names in seen)

    def test_run_grid_progress_counts_cells(self):
        events = []
        ParallelRunner(workers=1).run_grid(
            self.GRID_A, [1, 2], progress=lambda done, total: events.append((done, total))
        )
        assert events == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_progress_exception_aborts_the_run(self):
        def explode(grid, done, total):
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            ParallelRunner(workers=1).run_grids(self.GRIDS, progress=explode)


class TestSweep:
    def test_sweep_rows_echo_grid_and_carry_cis(self):
        rows = ParallelRunner(workers=2).sweep(
            "linear",
            grid={"num_nodes": (3, 4), "protocol": ("jtp",)},
            seeds=[1, 2],
            base_params={"transfer_bytes": 10_000, "num_flows": 1, "duration": 200},
        )
        assert len(rows) == 2
        for row in rows:
            assert row["scenario"] == "linear"
            assert row["protocol"] == "jtp"
            assert row["n"] == 2
            assert row["energy_per_bit_microjoules_mean"] > 0
            assert row["energy_per_bit_microjoules_ci95"] >= 0
            assert row["goodput_kbps_mean"] > 0
        assert [row["num_nodes"] for row in rows] == [3, 4]

    def test_sweep_derives_seeds_from_count(self):
        rows = ParallelRunner(workers=1).sweep(
            "linear",
            grid={"num_nodes": (3,)},
            seeds=2,
            base_params={"transfer_bytes": 10_000, "num_flows": 1, "duration": 200},
        )
        assert rows[0]["n"] == 2


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)
        assert len(set(spawn_seeds(7, 5))) == 5
        assert spawn_seeds(7, 5) != spawn_seeds(8, 5)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, 0)
