"""Simulation-core throughput — the events/sec trajectory of the engine.

Three workloads, each measuring the serial inner loop that dominates
paper-scale wall-clock (the executor backends only parallelise *across*
replications; every replication still pays the per-event cost measured
here):

1. **engine_churn** — a pure scheduler workload: periodic zero-arg
   timers that each cancel a decoy event and schedule two more per
   firing.  No network stack at all, so the number is the raw
   dispatch + lazy-cancel cost of :class:`repro.sim.engine.Simulator`.
2. **linear** — the acceptance workload: an 8-node linear-topology JTP
   transfer (the scenario family behind Figures 3-9), timed over the
   ``network.run`` phase only.  This is the per-event cost a paper run
   actually pays.
3. **mobile** — a 12-node random topology under random-waypoint
   mobility, exercising the spatial neighbor index, the incremental
   position updates and the Gilbert–Elliott links.

Results go to ``BENCH_core.json`` next to this file:

* ``baseline`` — the pre-overhaul engine (PR 4 state), measured once on
  the reference machine and kept for the trajectory;
* ``current`` — this run;
* ``speedup_vs_baseline`` — current / baseline events-per-second.

The regression gate compares this run against the **committed**
``current`` numbers: a drop of more than ``MAX_REGRESSION`` (25%) in
any workload's events/sec fails the bench unless
``REPRO_BENCH_NO_ASSERT`` is set (the same escape hatch
``bench_parallel_scaling.py`` uses on noisy shared runners).  A
workload whose event count differs from the committed one is gated on
``wall_s`` growing by more than the same bound instead (see
``conftest.throughput_regression``).

Run with::

    python -m pytest benchmarks/bench_core_engine.py -q -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from conftest import bench_host, bench_no_assert, events_per_sec_report, throughput_regression

from repro.sim.engine import Simulator

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_core.json"

#: Allowed fractional events/sec drop vs the committed numbers.
MAX_REGRESSION = 0.25

CHURN_TIMERS = 64
CHURN_DURATION = 1200.0
LINEAR_PARAMS = {"num_nodes": 8, "transfer_bytes": 200_000.0, "num_flows": 2, "duration": 1500.0, "seed": 1}
MOBILE_PARAMS = {"num_nodes": 12, "num_flows": 2, "transfer_bytes": 60_000.0, "duration": 900.0, "speed": 5.0, "seed": 1}

#: Each workload is measured this many times; the best (highest
#: events/sec) repeat is recorded, which filters scheduler noise out of
#: the trajectory — the simulations are deterministic, so repeats only
#: differ in interference from the host.
BENCH_REPEATS = 3


def _noop() -> None:
    return None


def run_engine_churn(num_timers: int = CHURN_TIMERS, duration: float = CHURN_DURATION) -> Simulator:
    """Pure scheduler churn: periodic timers cancelling decoy events.

    Every firing cancels the previously scheduled decoy and schedules a
    fresh decoy plus its own next firing, so cancelled events accumulate
    in the heap exactly the way superseded protocol timers do — the
    workload the lazy-cancel compaction exists for.
    """
    sim = Simulator()

    def make_timer(period: float):
        decoys = []

        def fire() -> None:
            if decoys:
                decoys.pop().cancel()
            decoys.append(sim.schedule(period * 3.0, _noop))
            sim.schedule(period, fire)

        return fire

    for index in range(num_timers):
        period = 0.5 + (index % 7) * 0.25
        sim.schedule(period, make_timer(period))
    sim.run(until=duration)
    return sim


def build_linear_network():
    """The acceptance workload's network, built but not yet run."""
    from repro.experiments.scenarios import PAPER_LINK_QUALITY
    from repro.sim.network import Network
    from repro.transport.registry import make_protocol

    params = LINEAR_PARAMS
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
    return network


def build_mobile_network():
    """The mobility workload: random topology plus random-waypoint movement."""
    from repro.experiments.scenarios import PAPER_LINK_QUALITY
    from repro.sim.mobility import RandomWaypointMobility
    from repro.sim.network import Network
    from repro.sim.random import RandomStreams
    from repro.transport.registry import make_protocol

    params = MOBILE_PARAMS
    num_nodes = int(params["num_nodes"])
    network = Network.random(num_nodes, seed=int(params["seed"]), link_quality=PAPER_LINK_QUALITY)
    streams = RandomStreams(int(params["seed"]))
    mobility = RandomWaypointMobility(
        network.channel,
        streams.stream("mobility"),
        speed=float(params["speed"]),
        field_size=getattr(network, "field_size", 200.0),
    )
    network.attach_mobility(mobility)
    protocol = make_protocol("jtp", None)
    protocol.install(network)
    pair_rng = streams.stream("flows")
    for index in range(int(params["num_flows"])):
        src, dst = pair_rng.sample(range(num_nodes), 2)
        protocol.create_flow(network, src, dst, params["transfer_bytes"], start_time=index * 5.0)
    return network


def _measure_network(network, duration: float) -> dict:
    sim = network.sim
    before = sim.events_processed
    started = time.perf_counter()
    network.run(duration)
    wall = time.perf_counter() - started
    events = sim.events_processed - before
    return {
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
    }


def _measure_churn() -> dict:
    started = time.perf_counter()
    sim = run_engine_churn()
    wall = time.perf_counter() - started
    return {
        "events": sim.events_processed,
        "wall_s": round(wall, 4),
        "events_per_sec": round(sim.events_processed / wall, 1),
    }


def _best_of(measure: "Callable[[], dict]", repeats: int = BENCH_REPEATS) -> dict:
    measurements = [measure() for _ in range(repeats)]
    return max(measurements, key=lambda m: m["events_per_sec"])


def measure_all() -> dict:
    """Run every workload ``BENCH_REPEATS`` times; keep the best repeat."""
    return {
        "engine_churn": _best_of(_measure_churn),
        "linear": _best_of(
            lambda: _measure_network(build_linear_network(), LINEAR_PARAMS["duration"])
        ),
        "mobile": _best_of(
            lambda: _measure_network(build_mobile_network(), MOBILE_PARAMS["duration"])
        ),
    }


def test_core_engine_throughput(benchmark):
    committed = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    current: dict = {}

    def run_all():
        current.update(measure_all())

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for workload, measurement in current.items():
        events_per_sec_report(workload, measurement["events"], measurement["wall_s"])

    baseline = committed.get("baseline", {})
    record = {
        "bench": "core_engine",
        "host": bench_host(),
        "workloads": {
            "engine_churn": {"timers": CHURN_TIMERS, "duration": CHURN_DURATION},
            "linear": LINEAR_PARAMS,
            "mobile": MOBILE_PARAMS,
        },
        "baseline": baseline,
        "current": current,
        "speedup_vs_baseline": {
            name: round(current[name]["events_per_sec"] / baseline[name]["events_per_sec"], 3)
            for name in current
            if name in baseline and baseline[name].get("events_per_sec")
        },
    }

    # Other bench drivers (bench_faults.py) store their records under
    # their own top-level keys in the same file; a wholesale rewrite
    # must carry them forward, not drop them.
    for key, value in committed.items():
        if key not in record:
            record[key] = value

    previous = committed.get("current", {})
    regressions = {
        name: reason
        for name, measurement in current.items()
        if name in previous
        and (reason := throughput_regression(measurement, previous[name], MAX_REGRESSION))
    }

    gate_active = not bench_no_assert()
    if regressions and gate_active:
        # Do NOT overwrite the committed reference with the regressed
        # numbers — otherwise an immediate re-run would compare against
        # them and pass, silently ratcheting the trajectory down.  The
        # evidence goes to a sibling file instead (still inside the CI
        # artifact upload path).
        RECORD_PATH.with_suffix(".failed.json").write_text(json.dumps(record, indent=2) + "\n")
    else:
        RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))

    if not gate_active:
        return
    assert not regressions, (
        "core throughput regressed by more than "
        f"{MAX_REGRESSION:.0%} vs the committed BENCH_core.json "
        f"(measured numbers preserved in {RECORD_PATH.with_suffix('.failed.json').name}): "
        + ", ".join(f"{name}: {reason}" for name, reason in regressions.items())
    )
