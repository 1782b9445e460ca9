"""Resilience workload families: grids, aggregation, backend bit-identity.

The workload registry (`repro.experiments.workloads`) must behave like
any other figure family: declarative grids with a fault-free baseline
column, rows carrying the resilience metrics, plot specs registered with
the generic renderer, names runnable through ``run_paper`` — and the
aggregated rows bit-identical on every executor backend, which the
Hypothesis property test extends to *random* fault plans.
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import ProcessBackend
from repro.experiments.parallel import ParallelRunner, ScenarioSpec
from repro.experiments.presets import WORKLOAD_JOBS, run_paper
from repro.experiments.workloads import (
    DEFAULT_PROTOCOLS,
    blackout_plan,
    churn_plan,
    flapping_links_plan,
    partition_heal_plan,
)
from repro.sim.faults import FaultEvent, FaultPlan, FaultProcess

#: The workload family names, in registry order.
WORKLOADS = ("churn", "partition_heal", "flapping_links", "blackout")

#: One small partition_heal grid reused by the aggregation and backend
#: tests: 1 protocol x 2 outage cells on a 5-node chain.
SMOKE_PLAN_KWARGS = dict(
    protocols=("jtp",),
    outages=(0.0, 20.0),
    num_nodes=5,
    fault_start=30.0,
    transfer_bytes=60_000.0,
    duration=240.0,
)


class TestWorkloadRegistry:
    def test_registry_names_are_stable(self):
        assert tuple(job.name for job in WORKLOAD_JOBS) == WORKLOADS

    def test_workload_index_matches_the_jobs(self):
        # The --list-figures workload section prints exactly these records.
        from repro.experiments.report import format_figure_index

        section = format_figure_index().split("Fault-injection workloads", 1)[1]
        listed = [line.split()[0] for line in section.splitlines()[3:]]
        assert listed == list(WORKLOADS)
        for job in WORKLOAD_JOBS:
            assert job.kind == "metric"
            assert job.description

    def test_jobs_resolve_through_the_workloads_module(self):
        from repro.experiments import workloads

        for job in WORKLOAD_JOBS:
            assert job.module == "repro.experiments.workloads"
            assert callable(job.planner())
            assert getattr(workloads, job.name).__name__ == job.name

    def test_plot_specs_registered_with_the_renderer(self):
        from repro.experiments.presets import ALL_FIGURES
        from repro.plots.render import default_specs

        specs = default_specs()
        # The workload registration must not displace any paper figure.
        for job in ALL_FIGURES + WORKLOAD_JOBS:
            assert specs[job.name] is job.plot
        assert len(specs) == len(ALL_FIGURES) + len(WORKLOAD_JOBS)


class TestPlanBuilders:
    def test_churn_grid_shape_and_baseline(self):
        plan = churn_plan(protocols=("jtp", "tcp"), churn_rates=(0.0, 0.02), num_nodes=8)
        assert plan.name == "churn"
        assert len(plan.specs) == 4  # 2 rates x 2 protocols
        for spec in plan.specs:
            fault_plan = spec.params["fault_plan"]
            assert spec.scenario == "random"
            if fault_plan is None:
                continue  # the fault-free baseline column
            assert isinstance(fault_plan, FaultPlan)
            assert fault_plan.processes[0].kind == "crash"
            # Every node is a churn candidate, endpoints included.
            assert fault_plan.processes[0].nodes == tuple(range(8))
        baselines = [spec for spec in plan.specs if spec.params["fault_plan"] is None]
        assert len(baselines) == 2  # one per protocol

    def test_partition_heal_grid_cuts_half_the_chain(self):
        plan = partition_heal_plan(**SMOKE_PLAN_KWARGS)
        faulted = [
            spec.params["fault_plan"]
            for spec in plan.specs
            if spec.params["fault_plan"] is not None
        ]
        assert faulted
        for fault_plan in faulted:
            event = fault_plan.events[0]
            assert event.kind == "partition"
            assert event.nodes == (0, 1)  # num_nodes // 2 on a 5-chain
            assert event.time == 30.0
            assert event.duration == 20.0

    def test_flapping_links_covers_every_chain_link(self):
        plan = flapping_links_plan(protocols=("jtp",), flap_rates=(0.0, 0.04), num_nodes=5)
        faulted = [
            spec.params["fault_plan"]
            for spec in plan.specs
            if spec.params["fault_plan"] is not None
        ]
        assert faulted[0].processes[0].links == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_blackout_forces_the_bad_regime(self):
        plan = blackout_plan(protocols=("jtp",), outages=(0.0, 30.0), fault_start=60.0)
        faulted = [
            spec.params["fault_plan"]
            for spec in plan.specs
            if spec.params["fault_plan"] is not None
        ]
        assert faulted[0].events[0].kind == "regime"
        assert faulted[0].events[0].regime == "bad"

    def test_default_protocols_are_the_paper_trio(self):
        assert DEFAULT_PROTOCOLS == ("jtp", "jnc", "tcp")


class TestResilienceAggregation:
    @pytest.fixture(scope="class")
    def rows(self):
        return partition_heal_plan(**SMOKE_PLAN_KWARGS).run(seeds=(1,), workers=0)

    def test_rows_carry_the_resilience_columns(self, rows):
        assert len(rows) == 2  # one per (outage, protocol) cell
        for row in rows:
            for column in (
                "outage_s",
                "protocol",
                "goodput_kbps",
                "goodput_ci",
                "delivered_frac",
                "delivered_ci",
                "outage_delivery_ratio",
                "post_heal_recovery_s",
                "goodput_vs_baseline",
                "fault_events",
                "outage_seconds",
            ):
                assert column in row, f"row misses {column}"

    def test_baseline_row_is_fault_free_and_self_relative(self, rows):
        baseline = next(row for row in rows if row["outage_s"] == 0.0)
        assert baseline["fault_events"] == 0
        assert baseline["outage_seconds"] == 0.0
        assert baseline["goodput_vs_baseline"] == pytest.approx(1.0)
        assert baseline["outage_delivery_ratio"] == pytest.approx(1.0)

    def test_faulted_row_saw_the_partition(self, rows):
        faulted = next(row for row in rows if row["outage_s"] == 20.0)
        assert faulted["fault_events"] == 2  # partition + heal
        assert faulted["outage_seconds"] == pytest.approx(20.0)
        assert 0.0 < faulted["goodput_vs_baseline"] <= 1.5


class TestRunPaperIntegration:
    def test_workloads_run_by_name_and_persist(self, tmp_path):
        results = run_paper(
            figures=["partition_heal"],
            seeds="smoke",
            workers=0,
            out_dir=tmp_path / "run",
        )
        assert set(results) == {"partition_heal"}
        assert results["partition_heal"]
        assert (tmp_path / "run" / "partition_heal.json").exists()

    def test_unknown_workload_name_rejected(self):
        with pytest.raises(ValueError, match="unknown figures"):
            run_paper(figures=["partition_heel"], seeds="smoke", workers=0)

    def test_default_run_stays_paper_only(self):
        # Workloads are opt-in mix-ins: the all-figures default must not
        # silently grow fault runs.
        from repro.experiments.presets import ALL_FIGURES

        assert not set(WORKLOADS) & {job.name for job in ALL_FIGURES}


class TestBackendBitIdentity:
    def test_serial_process_async_rows_are_identical(self):
        plan = partition_heal_plan(**SMOKE_PLAN_KWARGS)
        serial_rows = plan.run(seeds=(1,), workers=0)
        process_rows = plan.run(seeds=(1,), workers=2)
        private_backend = ProcessBackend(workers=3)
        try:
            async_rows = plan.run(seeds=(1,), backend=private_backend)
        finally:
            private_backend.close()
        assert json.dumps(serial_rows) == json.dumps(process_rows)
        assert json.dumps(serial_rows) == json.dumps(async_rows)


# ---------------------------------------------------------------------------
# Property: random plans are bit-identical across backends and runs
# ---------------------------------------------------------------------------

_PROPERTY_NODES = 6


@st.composite
def _random_fault_plans(draw):
    """A random-but-valid FaultPlan over a 6-node chain, plus run knobs."""
    events = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["crash", "pause", "link_down", "partition", "regime"]))
        time = draw(st.floats(1.0, 200.0, allow_nan=False, allow_infinity=False))
        duration = draw(st.floats(5.0, 60.0, allow_nan=False, allow_infinity=False))
        if kind in ("crash", "pause"):
            node = draw(st.integers(0, _PROPERTY_NODES - 1))
            events.append(FaultEvent(time=time, kind=kind, nodes=(node,), duration=duration))
        elif kind == "link_down":
            left = draw(st.integers(0, _PROPERTY_NODES - 2))
            events.append(
                FaultEvent(time=time, kind="link_down", links=((left, left + 1),), duration=duration)
            )
        elif kind == "partition":
            cut = draw(st.integers(1, _PROPERTY_NODES - 1))
            events.append(
                FaultEvent(time=time, kind="partition", nodes=tuple(range(cut)), duration=duration)
            )
        else:
            regime = draw(st.sampled_from(["good", "bad"]))
            events.append(FaultEvent(time=time, kind="regime", regime=regime, duration=duration))
    processes = []
    if draw(st.booleans()):
        processes.append(
            FaultProcess(
                kind=draw(st.sampled_from(["crash", "link_down"])),
                rate=draw(st.floats(0.005, 0.05, allow_nan=False)),
                mean_duration=draw(st.floats(5.0, 30.0, allow_nan=False)),
                until=200.0,
                nodes=tuple(range(_PROPERTY_NODES)),
                links=tuple((i, i + 1) for i in range(_PROPERTY_NODES - 1)),
            )
        )
    plan = FaultPlan(events=tuple(events), processes=tuple(processes))
    workers = draw(st.integers(1, 2))
    seed = draw(st.integers(1, 10_000))
    return plan, workers, seed


def _property_spec(plan):
    return ScenarioSpec(
        "linear",
        {
            "num_nodes": _PROPERTY_NODES,
            "protocol": "jtp",
            "num_flows": 1,
            "transfer_bytes": 30_000.0,
            "duration": 240.0,
            "fault_plan": plan,
        },
    )


class TestRandomPlanBitIdentity:
    @given(case=_random_fault_plans())
    @settings(max_examples=6, deadline=None)
    def test_backends_agree_on_records_for_random_plans(self, case):
        # For a random fault plan, worker count and seed, the pickled
        # per-cell records — metrics, resilience counters, everything a
        # worker ships home — must be byte-identical between the serial
        # backend and a real process pool: fault injection must not
        # depend on where the simulation runs.
        plan, workers, seed = case
        specs = [_property_spec(plan), _property_spec(None)]
        serial = ParallelRunner(workers=0).run_grid(specs, [seed])
        pooled = ParallelRunner(workers=workers).run_grid(specs, [seed])
        assert serial == pooled
        # The pooled records crossed a process boundary: they must also
        # survive a pickle round-trip unchanged, and canonical JSON of
        # both sides must match bytewise.  (Raw pickle bytes are NOT
        # compared: the streams differ in string-memoisation structure —
        # serial records share interned key strings with their spec —
        # while encoding equal values.)
        assert pickle.loads(pickle.dumps(pooled)) == serial
        canonical = [
            json.dumps(dataclasses.asdict(record), sort_keys=True, default=repr)
            for group in serial
            for record in group
        ]
        pooled_canonical = [
            json.dumps(dataclasses.asdict(record), sort_keys=True, default=repr)
            for group in pooled
            for record in group
        ]
        assert canonical == pooled_canonical

    @given(case=_random_fault_plans())
    @settings(max_examples=6, deadline=None)
    def test_fault_traces_reproduce_for_random_plans(self, case):
        from repro.experiments.scenarios import linear_scenario

        plan, _workers, seed = case
        traces = [
            repr(
                linear_scenario(
                    _PROPERTY_NODES,
                    protocol="jtp",
                    num_flows=1,
                    transfer_bytes=30_000.0,
                    duration=240.0,
                    seed=seed,
                    trace_kinds={"fault"},
                    fault_plan=plan,
                ).network.trace.events("fault")
            )
            for _ in range(2)
        ]
        assert traces[0] == traces[1]


class TestStaticAnalysisScope:
    """Satellite: the determinism gates and the RNG-site scan cover the new modules."""

    def test_det001_scopes_cover_faults_and_workloads(self):
        from repro.checks.registry import get_rule
        from repro.checks.source import ModuleSource

        rule = get_rule("DET001")
        for module in ("repro.sim.faults", "repro.experiments.workloads"):
            source = ModuleSource.from_text("x = 1\n", path=f"<{module}>", module=module)
            assert source.in_package(rule.packages), f"DET001 does not scan {module}"

    def test_det001_fires_inside_the_new_modules(self):
        from repro.checks.registry import get_rule
        from repro.checks.source import ModuleSource

        snippet = "import random\n\ndef jitter():\n    return random.random()\n"
        for module in ("repro.sim.faults", "repro.experiments.workloads"):
            source = ModuleSource.from_text(snippet, path=f"<{module}>", module=module)
            assert list(get_rule("DET001").run(source)), f"DET001 silent in {module}"

    def test_rng_site_scan_covers_faults_and_workloads(self):
        # The RNG-site test in test_random_streams.py scans every module
        # under src/repro: a constant-seeded RNG added to either module
        # is an unsanctioned site there.
        from test_random_streams import SRC, rng_sites

        from repro.checks.source import ModuleSource, load_sources

        scanned = {source.module: source for source in load_sources([SRC / "repro"])[0]}
        for module in ("repro.sim.faults", "repro.experiments.workloads"):
            source = scanned[module]
            mutated = ModuleSource.from_text(source.text + "\nimport random\n_RNG = random.Random(7)\n", path=source.path)
            assert rng_sites([source]) == set()
            assert rng_sites([mutated]) == {(module, "<module>")}

    def test_ci_runs_mypy_strict_on_the_new_modules(self):
        from pathlib import Path

        workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml").read_text()
        assert "src/repro/sim/faults.py" in workflow
        assert "src/repro/experiments/workloads.py" in workflow
