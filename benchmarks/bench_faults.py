"""Fault-injection overhead — what the fault seam costs the hot path.

Three variants of the same 8-node linear JTP transfer, timed over the
``network.run`` phase only (the workload behind Figures 3-9):

1. **no_plan** — the historical code path: no injector installed, the
   channel's fault bookkeeping empty.  The reference events/sec.
2. **empty_plan** — an injector installed with an *empty*
   :class:`~repro.sim.faults.FaultPlan`.  By the bit-identity contract
   this run schedules zero fault events and draws nothing from the
   ``"faults"`` stream, so the delta against ``no_plan`` is exactly the
   cost of the seam itself (the down-node/blocked-link checks on the
   channel's neighbour and loss paths).
3. **dense_plan** — Poisson link flapping over every chain link at a
   rate that materialises a couple of hundred fault events, measuring
   the cost of connectivity invalidation and routing re-convergence
   under sustained fault load.

Results nest under the ``"faults"`` key of ``BENCH_core.json`` (the
core-engine record keeps its historical top-level layout; both drivers
preserve each other's keys when rewriting the file).  The regression
gate mirrors ``bench_core_engine.py``: a drop of more than
``MAX_REGRESSION`` (25%) in any variant's events/sec against the
committed numbers (or, when the variant's event count changed, a
``wall_s`` rise of more than the same bound) fails the bench unless
``REPRO_BENCH_NO_ASSERT`` is set; regressed measurements go to
``BENCH_core.failed.json`` instead of overwriting the committed
reference.

Run with::

    python -m pytest benchmarks/bench_faults.py -q -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from conftest import bench_host, bench_no_assert, events_per_sec_report, throughput_regression

from repro.sim.faults import FaultPlan

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_core.json"

#: Allowed fractional events/sec drop vs the committed numbers.
MAX_REGRESSION = 0.25

SCENARIO_PARAMS = {
    "num_nodes": 8,
    "transfer_bytes": 200_000.0,
    "num_flows": 2,
    "duration": 1500.0,
    "seed": 1,
}
#: Poisson link flapping over every chain link: ~0.15 events/s for 90%
#: of the run materialises a couple of hundred fault events.
DENSE_FLAP_RATE = 0.15
DENSE_MEAN_OUTAGE = 2.0

#: Best-of repeats, same noise filter as bench_core_engine.py.
BENCH_REPEATS = 3


def _dense_plan() -> FaultPlan:
    num_nodes = int(SCENARIO_PARAMS["num_nodes"])
    links = tuple((i, i + 1) for i in range(num_nodes - 1))
    return FaultPlan.link_flapping(
        links,
        rate=DENSE_FLAP_RATE,
        mean_outage=DENSE_MEAN_OUTAGE,
        until=float(SCENARIO_PARAMS["duration"]) * 0.9,
    )


def _build_network(plan: Optional[FaultPlan]):
    """The measured network, built (and plan installed) but not yet run."""
    from repro.experiments.scenarios import PAPER_LINK_QUALITY
    from repro.sim.network import Network
    from repro.transport.registry import make_protocol

    params = SCENARIO_PARAMS
    network = Network.linear(
        int(params["num_nodes"]), seed=int(params["seed"]), link_quality=PAPER_LINK_QUALITY
    )
    protocol = make_protocol("jtp", None)
    protocol.install(network)
    last = int(params["num_nodes"]) - 1
    for index in range(int(params["num_flows"])):
        protocol.create_flow(
            network, 0, last, params["transfer_bytes"], start_time=index * 5.0
        )
    if plan is not None:
        network.install_fault_plan(plan)
    return network


def _measure(plan: Optional[FaultPlan]) -> dict:
    network = _build_network(plan)
    sim = network.sim
    before = sim.events_processed
    started = time.perf_counter()
    network.run(float(SCENARIO_PARAMS["duration"]))
    wall = time.perf_counter() - started
    events = sim.events_processed - before
    measurement = {
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
    }
    injector = network.fault_injector
    if injector is not None:
        measurement["fault_events"] = injector.applied_events
    return measurement


def _best_of(measure: "Callable[[], dict]", repeats: int = BENCH_REPEATS) -> dict:
    measurements = [measure() for _ in range(repeats)]
    return max(measurements, key=lambda m: m["events_per_sec"])


def measure_all() -> Dict[str, dict]:
    """Run every variant ``BENCH_REPEATS`` times; keep the best repeat."""
    return {
        "no_plan": _best_of(lambda: _measure(None)),
        "empty_plan": _best_of(lambda: _measure(FaultPlan())),
        "dense_plan": _best_of(lambda: _measure(_dense_plan())),
    }


def test_fault_injection_overhead(benchmark):
    committed = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    current: Dict[str, dict] = {}

    def run_all():
        current.update(measure_all())

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for variant, measurement in current.items():
        events_per_sec_report(f"faults/{variant}", measurement["events"], measurement["wall_s"])

    # The empty plan must not change the simulation itself: same event
    # count as the plan-free run is the bit-identity contract's visible
    # half, independent of wall-clock noise.
    assert current["empty_plan"]["events"] == current["no_plan"]["events"], (
        "an empty FaultPlan changed the event trajectory: "
        f"{current['empty_plan']['events']} vs {current['no_plan']['events']} events"
    )

    reference = current["no_plan"]["events_per_sec"]
    faults_record = {
        "bench": "faults_overhead",
        "host": bench_host(),
        "workloads": {
            "scenario": SCENARIO_PARAMS,
            "dense_plan": {"flap_rate": DENSE_FLAP_RATE, "mean_outage": DENSE_MEAN_OUTAGE},
        },
        "current": current,
        "overhead_vs_no_plan": {
            variant: round(1.0 - measurement["events_per_sec"] / reference, 4)
            for variant, measurement in current.items()
            if variant != "no_plan" and reference
        },
    }

    record = dict(committed)
    record["faults"] = faults_record

    previous = committed.get("faults", {}).get("current", {})
    regressions = {
        variant: reason
        for variant, measurement in current.items()
        if variant in previous
        and (reason := throughput_regression(measurement, previous[variant], MAX_REGRESSION))
    }

    gate_active = not bench_no_assert()
    if regressions and gate_active:
        # Keep the committed reference intact; the measured evidence
        # goes to the sibling file the CI artifact upload picks up.
        RECORD_PATH.with_suffix(".failed.json").write_text(json.dumps(record, indent=2) + "\n")
    else:
        RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(faults_record, indent=2))

    if not gate_active:
        return
    assert not regressions, (
        "fault-injection throughput regressed by more than "
        f"{MAX_REGRESSION:.0%} vs the committed BENCH_core.json "
        f"(measured numbers preserved in {RECORD_PATH.with_suffix('.failed.json').name}): "
        + ", ".join(f"{variant}: {reason}" for variant, reason in regressions.items())
    )
