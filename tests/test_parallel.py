"""Parallel replication: records, specs, determinism, sweeps."""

import pickle
from typing import ClassVar, List, Tuple

import pytest

from repro.experiments import parallel
from repro.experiments.backends import ExecutorBackend, ProcessBackend, SerialBackend
from repro.experiments.parallel import (
    ParallelRunner,
    ScenarioRecord,
    ScenarioSpec,
    spawn_seeds,
)
from repro.experiments.presets import ALL_FIGURES, WORKLOAD_JOBS, preset_seeds
from repro.experiments.results import cell_content
from repro.experiments.runner import summarize
from repro.experiments.scenarios import ScenarioResult, linear_scenario

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
        record = ScenarioRecord.from_result(spec(seed=1), 1, spec.scenario, spec.params)
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
            ParallelRunner(workers=1).run_grids([([ScenarioSpec("linear", SMALL_LINEAR)], [])])

    def test_parallel_matches_serial_bit_identically(self):
        spec = ScenarioSpec("linear", SMALL_LINEAR)
        seeds = [1, 2, 3, 4]
        [serial] = ParallelRunner(workers=1).run_grids([([spec], seeds)])[0]
        [parallel] = ParallelRunner(workers=4).run_grids([([spec], seeds)])[0]
        assert parallel == serial
        for attribute in ("energy_per_bit_microjoules", "goodput_kbps", "delivered_fraction"):
            assert summarize(parallel, attribute) == summarize(serial, attribute)

    def test_run_grid_aligns_records_with_specs(self):
        specs = [
            ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size))
            for size in (3, 4)
        ]
        per_spec = ParallelRunner(workers=2).run_grids([(specs, [1, 2])])[0]
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
                assert batched[0] == runner.run_grids([(self.GRID_A, [1, 2])])[0]
                assert batched[1] == runner.run_grids([(self.GRID_B, [3])])[0]
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
        ParallelRunner(workers=1).run_grids(
            [(self.GRID_A, [1, 2])], progress=lambda grid, done, total: events.append((grid, done, total))
        )
        assert events == [(0, 1, 4), (0, 2, 4), (0, 3, 4), (0, 4, 4)]

    def test_progress_exception_aborts_the_run(self):
        def explode(grid, done, total):
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            ParallelRunner(workers=1).run_grids(self.GRIDS, progress=explode)


class _Stringly:
    """A parameter value whose ``str`` hides its content."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Stringly) and other.value == self.value

    def __str__(self):
        return "stringly"


class _PlanOnly(ExecutorBackend):
    """Counts the tasks it is handed and runs none of them."""

    name = "plan-only"
    workers = 1

    def map(self, fn, items):
        items = list(items)
        self._record_submission(len(items))
        return [None] * len(items)

    def imap(self, fn, items):
        return iter(self.map(fn, items))


class TestSharedCells:
    """Identical ``(spec, seed)`` cells of different grids run once."""

    # Grid A's (4 nodes, seed 2) cell is grid B's first cell: it runs at
    # slot 1 (B's task 0) and slot 6 (A's task 3) takes its record.
    GRID_A: ClassVar[List[ScenarioSpec]] = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
    GRID_B: ClassVar[List[ScenarioSpec]] = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (4, 5)]
    GRIDS: ClassVar[List[Tuple[List[ScenarioSpec], List[int]]]] = [(GRID_A, [1, 2]), (GRID_B, [2, 3])]
    #: What simulating every slot would report: the round-robin interleave.
    EVENTS: ClassVar[List[Tuple[int, int, int]]] = [
        (0, 1, 4), (1, 1, 4), (0, 2, 4), (1, 2, 4), (0, 3, 4), (1, 3, 4), (0, 4, 4), (1, 4, 4)
    ]

    @pytest.fixture
    def built(self, monkeypatch):
        """Route the grids through a counting ``"linear"`` builder."""
        calls = []

        def counting(seed, tag=None, **params):
            calls.append((params["num_nodes"], seed))
            return linear_scenario(seed=seed, **params)

        monkeypatch.setitem(parallel.SCENARIO_BUILDERS, "linear", counting)
        return calls

    def test_each_distinct_cell_is_built_once(self, built):
        grouped = ParallelRunner(workers=1).run_grids(self.GRIDS)
        assert sorted(built) == [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3)]
        assert grouped[0][1][1] is grouped[1][0][0]

    def test_groups_equal_per_grid_runs(self):
        runner = ParallelRunner(workers=1)
        grouped = runner.run_grids(self.GRIDS)
        assert grouped == [runner.run_grids([grid])[0] for grid in self.GRIDS]

    def test_progress_sequence_is_unchanged_on_every_backend(self):
        reference = ParallelRunner(workers=1).run_grids(self.GRIDS)
        with ProcessBackend(workers=2) as process:
            for backend in (SerialBackend(), process):
                events = []
                grouped = ParallelRunner(backend=backend).run_grids(
                    self.GRIDS, progress=lambda *event: events.append(event)
                )
                assert events == self.EVENTS
                assert grouped == reference
                assert backend.tasks_submitted == 7

    def test_on_result_fires_once_per_slot(self, built):
        seen = []
        ParallelRunner(workers=1).run_grids(
            self.GRIDS,
            on_result=lambda grid, spec, seed, record: seen.append((grid, spec.params["num_nodes"], seed)),
        )
        assert seen == [(0, 3, 1), (1, 4, 2), (0, 3, 2), (1, 4, 3), (0, 4, 1), (1, 5, 2), (0, 4, 2), (1, 5, 3)]
        assert len(built) == 7

    def test_a_reused_member_spares_the_whole_group(self, built):
        cached = ParallelRunner(workers=1).run_grids([([self.GRID_A[1]], [2])])[0][0][0]
        built.clear()
        events, persisted = [], []

        def reuse(grid, spec, seed):
            # Only grid A's key for the shared cell is in the cache.
            return cached if (grid, spec.params["num_nodes"], seed) == (0, 4, 2) else None

        grouped = ParallelRunner(workers=1).run_grids(
            self.GRIDS,
            progress=lambda *event: events.append(event),
            reuse=reuse,
            on_result=lambda grid, spec, seed, record: persisted.append(
                (grid, spec.params["num_nodes"], seed, record)
            ),
        )
        assert (4, 2) not in built and len(built) == 6
        # Grid B's twin missed its own key: it takes the cached record
        # and is handed to on_result, to be persisted under its own key.
        assert (1, 4, 2, cached) in persisted
        assert grouped[1][0][0] is cached
        # The cached burst first, then live completions in slot order.
        assert events[0] == (0, 1, 4)
        assert [grid for grid, _, _ in events[1:]] == [0, 1, 0, 1, 0, 1, 1]

    def test_a_str_collision_is_not_shared(self, built):
        specs = [ScenarioSpec("linear", dict(SMALL_LINEAR, tag=_Stringly(value))) for value in (1, 2)]
        assert len({cell_content(spec.scenario, spec.params, 1) for spec in specs}) == 1
        ParallelRunner(workers=1).run_grids([([specs[0]], [1]), ([specs[1]], [1])])
        assert built == [(3, 1), (3, 1)]

    @pytest.mark.parametrize(
        ("jobs", "smoke", "count", "slots", "distinct"),
        [
            # benchmarks/e2e's ``faults`` workload: every fault family at
            # its defaults, 3 seeds.
            pytest.param(WORKLOAD_JOBS, False, 3, 108, 90, id="faults"),
            # ``sweep_resume``: every figure and family at smoke size, 16
            # seeds; the 8 trace-figure cells run at their one pinned seed.
            pytest.param(ALL_FIGURES + WORKLOAD_JOBS, True, 16, 696, 600, id="sweep_resume"),
        ],
    )
    def test_benchmark_plans_submit_only_distinct_cells(self, jobs, smoke, count, slots, distinct):
        plans = [job.planner()(**(job.smoke_kwargs if smoke else {})) for job in jobs]
        grids = [(plan.specs, plan.seeds or preset_seeds(count)) for plan in plans]
        assert sum(len(specs) * len(seeds) for specs, seeds in grids) == slots
        backend = _PlanOnly()
        ParallelRunner(backend=backend).run_grids(grids)
        assert backend.tasks_submitted == distinct


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)
        assert len(set(spawn_seeds(7, 5))) == 5
        assert spawn_seeds(7, 5) != spawn_seeds(8, 5)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, 0)
