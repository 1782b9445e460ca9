"""End-to-end benchmark of ``run_paper``: four workloads, per-layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all workloads, 5 repeats each
    python3 benchmarks/e2e/run.py --workloads faults --repeats 1
    python3 benchmarks/e2e/run.py --workload paper_random --seconds 20
    python3 benchmarks/e2e/run.py --trace               # per-layer metrics
    python3 benchmarks/e2e/run.py --write-expected      # re-pin expected.json

Every repeat is a fresh ``child.py`` process, and repeats of different
workloads are interleaved round-robin so that host drift hits every
workload alike: a closed loop with one client and at most two worker
processes.  ``--seconds`` keeps starting rounds until that much time has
passed (at least three), instead of running ``--repeats`` rounds.

The end-to-end metrics are measured with tracing off.  ``--trace`` (or
``--trace 1``) adds one traced repeat per workload and reports the
per-layer metrics instead; ``<out>/trace/<workload>.layers.json`` and
``.spans.jsonl`` hold the detail.  Every repeat's rows are digested per
figure; the digests must agree across repeats, equal the fresh run a
resume started from, and at a pinned seed equal ``expected.json``.  A
mismatching figure's operations count as failed and the command exits 1.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"wall_s": {"value": 7.91, "unit": "s"}, ...}}

Each invocation also writes its raw per-repeat values, with the host, to
``<out>/records/``; ``README.md`` explains the committed ``results/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

#: Rounds a ``--seconds`` run always completes, so each median has a middle.
MIN_ROUNDS = 3
#: Set-up probes per workload; more are run when fewer rounds completed.
MIN_SETUP_PROBES = 7
#: A child that runs longer than this is killed with its process group.
CHILD_TIMEOUT_S = 150.0

#: ``(name, unit)`` of the end-to-end metrics, all lower-is-better.
E2E_METRICS: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Layers whose self time, share and inbound calls are reported.
REPORTED_LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.channel",
    "sim.node",
    "sim.faults",
    "metrics",
    "mac",
    "routing",
    "core",
    "transport",
    "util",
    "experiments",
    "experiments.results",
    "plots",
)

#: ``(name, unit, better)`` of the named per-layer metrics.
NAMED_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.us_per_event", "us", "lower"),
    ("sim.engine.heap_compactions", "count", "lower"),
    ("sim.channel.link_draws", "count", "lower"),
    ("sim.channel.position_updates", "count", "lower"),
    ("sim.channel.neighbor_recomputes", "count", "lower"),
    ("routing.dijkstra_runs", "count", "lower"),
    ("routing.topology_changes", "count", "lower"),
    ("mac.enqueues", "count", "lower"),
    ("core.cache_lookups", "count", "lower"),
    ("transport.tcp_rto_reads", "count", "lower"),
    ("mac.link_transmissions", "count", "lower"),
    ("mac.queue_drops", "count", "lower"),
    ("core.cache_recoveries", "count", "higher"),
    ("core.source_rtx", "count", "lower"),
    ("core.cache_recovery_ratio", "ratio", "higher"),
    ("metrics.energy_per_bit_uJ", "uJ/bit", "lower"),
    ("sim.faults.fault_events", "count", "lower"),
    ("experiments.plan_s", "s", "lower"),
    ("experiments.simulate_s", "s", "lower"),
    ("experiments.aggregate_s", "s", "lower"),
    ("experiments.wait_s", "s", "lower"),
    ("experiments.cells", "count", "lower"),
    ("experiments.cells_reused", "count", "higher"),
    ("experiments.cells_computed", "count", "lower"),
    ("experiments.cell_p50_ms", "ms", "lower"),
    ("experiments.cell_tail_ms", "ms", "lower"),
    ("experiments.worker_busy_frac", "ratio", "higher"),
    ("experiments.results.get_s", "s", "lower"),
    ("experiments.results.put_s", "s", "lower"),
    ("experiments.results.persist_s", "s", "lower"),
    ("experiments.results.bytes_written", "bytes", "lower"),
    ("plots.render_s", "s", "lower"),
    ("plots.figures", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    metrics: List[Tuple[str, str, str]] = []
    for layer in REPORTED_LAYERS:
        metrics += [
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "ratio", "lower"),
            (f"{layer}.calls_in", "count", "lower"),
        ]
    return metrics + list(NAMED_LAYER_METRICS)


# -- statistics ------------------------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, sample count and the reportable tail percentile."""
    from tracing import tail_percentile

    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    tail = tail_percentile(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "tail": None if tail is None else {"pct": tail[0], "value": tail[1]},
    }


def layer_metrics(trace: Dict[str, Any], untimed_wall_s: float, traced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced repeat (see ``README.md``)."""
    from tracing import percentile, tail_percentile

    rollup = trace["rollup"]
    metrics: Dict[str, float] = {}
    for layer in REPORTED_LAYERS:
        for key in ("self_s", "share", "calls_in"):
            metrics[f"{layer}.{key}"] = rollup["layers"][layer][key]
    events = trace["engine"]["events"]
    metrics["sim.engine.events"] = events
    metrics["sim.engine.us_per_event"] = 1e6 * untimed_wall_s / events if events else 0.0
    metrics["sim.engine.heap_compactions"] = trace["engine"]["heap_compactions"]
    metrics.update(trace["ncalls"])

    totals = trace["totals"]
    recoveries = totals.get("cache_recoveries", 0)
    source_rtx = totals.get("source_retransmissions", 0)
    delivered_bits = 8.0 * totals.get("delivered_bytes", 0.0)
    metrics["mac.link_transmissions"] = totals.get("link_transmissions", 0)
    metrics["mac.queue_drops"] = totals.get("queue_drops", 0)
    metrics["core.cache_recoveries"] = recoveries
    metrics["core.source_rtx"] = source_rtx
    metrics["core.cache_recovery_ratio"] = recoveries / (recoveries + source_rtx) if recoveries + source_rtx else 0.0
    metrics["metrics.energy_per_bit_uJ"] = 1e6 * totals.get("energy_joules", 0.0) / delivered_bits if delivered_bits else 0.0
    metrics["sim.faults.fault_events"] = totals.get("fault_events", 0)

    spans = trace["spans"]

    def span_total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    simulate_s = span_total("simulate")
    cells = trace["cells"]
    cell_ms = trace["cell_ms"]
    metrics["experiments.plan_s"] = span_total("plan")
    metrics["experiments.simulate_s"] = simulate_s
    metrics["experiments.aggregate_s"] = span_total("aggregate")
    metrics["experiments.wait_s"] = rollup["wait_s"]
    metrics["experiments.cells"] = cells.get("reused", 0) + cells.get("computed", 0)
    metrics["experiments.cells_reused"] = cells.get("reused", 0)
    metrics["experiments.cells_computed"] = cells.get("computed", 0)
    tail = tail_percentile(cell_ms)
    metrics["experiments.cell_p50_ms"] = percentile(cell_ms, 50.0) if cell_ms else 0.0
    # Below twenty cells no percentile has ten beyond it; the slowest cell
    # stands in (every workload runs more than twenty).
    metrics["experiments.cell_tail_ms"] = tail[1] if tail is not None else max(cell_ms, default=0.0)
    metrics["experiments.worker_busy_frac"] = (
        sum(cell_ms) / 1e3 / (trace["workers"] * simulate_s) if simulate_s else 0.0
    )
    metrics["experiments.results.get_s"] = span_total("cells.get")
    metrics["experiments.results.put_s"] = span_total("cells.put")
    metrics["experiments.results.persist_s"] = span_total("persist")
    metrics["experiments.results.bytes_written"] = trace["bytes_written"]
    metrics["plots.render_s"] = span_total("render")
    metrics["plots.figures"] = trace["rendered"]
    metrics["trace.overhead_frac"] = traced_wall_s / untimed_wall_s - 1.0
    return metrics


# -- child processes -------------------------------------------------------------------


def child_env_from_env(tmp: Path) -> Dict[str, str]:
    """The children's environment: this one without ``REPRO_*`` knobs, with
    the checkout's ``src/`` importable and temporary files kept in ``tmp``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


class Children:
    """Starts ``child.py`` actions and collects their JSON results."""

    def __init__(self, out: Path) -> None:
        self.tmp = out / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = child_env_from_env(self.tmp)
        self._count = 0

    def run(self, request: Dict[str, Any]) -> Tuple[Optional[Dict[str, Any]], Optional[str], float]:
        """``(result, error, monotonic start)`` of one child action."""
        self._count += 1
        request_path = self.tmp / f"request-{self._count}.json"
        result_path = self.tmp / f"result-{self._count}.json"
        request_path.write_text(json.dumps(request))
        result_path.unlink(missing_ok=True)
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(request_path), str(result_path)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            output, _ = proc.communicate()
            return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s\n{output}", started
        finally:
            request_path.unlink(missing_ok=True)
        if proc.returncode != 0 or not result_path.exists():
            return None, f"exit code {proc.returncode}\n{output}", started
        result = json.loads(result_path.read_text())
        result_path.unlink()
        if result.get("error"):
            return result, result["error"], started
        return result, None, started


# -- the benchmark ---------------------------------------------------------------------


class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self, workload: Any, seed: int, out: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = out / "runs" / workload.name
        self.prep_dir = out / "runs" / f"{workload.name}.prep"
        self.operations = workload.operations(seed)
        self.samples: Dict[str, List[float]] = {name: [] for name, _ in E2E_METRICS}
        self.digests: List[Tuple[str, Dict[str, str]]] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.trace: Optional[Dict[str, Any]] = None
        self.traced_wall_s: Optional[float] = None

    def request(self, mode: str, **extra: Any) -> Dict[str, Any]:
        return {
            "mode": mode,
            "workload": self.workload.name,
            "workers": self.workload.workers,
            "seed": self.seed,
            "run_dir": str(self.run_dir),
            "prep_dir": str(self.prep_dir),
            **extra,
        }

    def record_failure(self, label: str, error: str) -> None:
        self.errors.append(f"{label}: {error}")
        self.attempted += sum(self.operations.values())
        self.failed += sum(self.operations.values())

    def prep(self, children: Children) -> None:
        result, error, _ = children.run(self.request("prep"))
        if result is None or error is not None:
            self.record_failure("prep", error or "no result")
            return
        self.digests.append(("prep", result["digests"]))

    def setup_probe(self, children: Children) -> None:
        result, error, started = children.run(self.request("setup"))
        if result is None or error is not None:
            self.errors.append(f"setup: {error}")
            return
        self.samples["setup_s"].append(result["ready"] - started)

    def repeat(self, children: Children, label: str, trace_dir: Optional[Path] = None) -> None:
        request = self.request("repeat", trace_dir=str(trace_dir) if trace_dir else None)
        result, error, _ = children.run(request)
        if result is None or error is not None:
            self.record_failure(label, error or "no result")
            return
        self.digests.append((label, result["digests"]))
        if trace_dir is None:
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                self.samples[name].append(result[name])
        else:
            self.trace = result["trace"]
            self.traced_wall_s = result["wall_s"]

    def check(self, pinned: Optional[Dict[str, str]]) -> Dict[str, str]:
        """Compare every observation's digests with the reference; return it.

        The reference is the pinned digests when the seed is pinned, else
        the fresh run a resume started from, else each figure's majority.
        """
        reference: Dict[str, str] = {}
        if pinned is not None:
            reference = dict(pinned)
        elif self.digests and self.digests[0][0] == "prep":
            reference = dict(self.digests[0][1])
        elif self.digests:
            for name in self.workload.figures:
                seen = collections.Counter(digests.get(name) for _, digests in self.digests)
                reference[name] = seen.most_common(1)[0][0]
        for label, digests in self.digests:
            self.attempted += sum(self.operations.values())
            for name in self.workload.figures:
                if digests.get(name) != reference.get(name):
                    self.failed += self.operations[name]
                    self.mismatches.append(
                        f"{self.workload.name}/{name} ({label}): {str(digests.get(name))[:16]} "
                        f"!= {str(reference.get(name))[:16]}"
                    )
        return reference


def parse_args(argv: Sequence[str], workload_names: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads",
        "--workload",
        default=",".join(workload_names),
        help=f"comma-separated workloads (default: all of {', '.join(workload_names)})",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--repeats", type=int, default=5, help="rounds of repeats (default 5)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"measure for this long instead of --repeats rounds (at least {MIN_ROUNDS} rounds)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: add a traced repeat per workload and report the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=HERE / "out", help="output directory (default benchmarks/e2e/out)")
    parser.add_argument("--write-expected", action="store_true", help="re-pin expected.json at this seed")
    args = parser.parse_args(argv)
    args.workloads = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(args.workloads) - set(workload_names))
    if unknown or not args.workloads:
        parser.error(f"unknown workloads {unknown}; known: {', '.join(workload_names)}")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def host_info() -> Dict[str, Any]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        cpus = os.cpu_count() or 1
    return {"hostname": platform.node(), "cpu_count": cpus, "python": platform.python_version()}


def format_summary(name: str, unit: str, summary: Dict[str, Any]) -> str:
    if summary["tail"] is None:
        tail = "no percentile has 10 samples beyond it"
    else:
        tail = f"p{summary['tail']['pct']:g} {summary['tail']['value']:.4g}"
    return (
        f"  {name:<12} {summary['median']:>10.4f} {unit:<3} "
        f"(q1 {summary['q1']:.4f}, q3 {summary['q3']:.4f}, n={summary['n']}; {tail})"
    )


def measure(
    runs: Sequence[WorkloadRun],
    children: Children,
    repeats: int,
    seconds: Optional[float],
    trace_dir: Optional[Path],
) -> int:
    """Run every child action of an invocation; return the rounds completed.

    Set-up probes run only when the end-to-end metrics are reported (no
    ``trace_dir``); a traced invocation adds one traced repeat per
    workload after the untimed rounds.
    """
    for run in runs:
        if run.workload.resume:
            run.prep(children)
    started = time.monotonic()
    rounds = 0
    while True:
        round_started = time.monotonic()
        for run in runs:
            if trace_dir is None:
                run.setup_probe(children)
            run.repeat(children, f"repeat {rounds + 1}")
        rounds += 1
        if seconds is None:
            if rounds >= repeats:
                break
        # Stop before a round that would overrun the time budget.
        elif rounds >= MIN_ROUNDS and 2 * time.monotonic() - round_started - started > seconds:
            break
    if trace_dir is None:
        for run in runs:
            while len(run.samples["setup_s"]) < MIN_SETUP_PROBES and not run.errors:
                run.setup_probe(children)
    else:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for run in runs:
            run.repeat(children, "traced", trace_dir)
    return rounds


def report(run: WorkloadRun, trace_dir: Optional[Path]) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]], bool]:
    """Print one workload's results; return its record entry, its metrics
    (end-to-end, or per-layer with ``trace_dir``) and whether it is correct."""
    name = run.workload.name
    ok = not run.failed and not run.errors and run.attempted > 0
    summaries = {metric: summarize(values) for metric, values in run.samples.items() if values}
    entry: Dict[str, Any] = {
        "operations": run.operations,
        "raw": run.samples,
        "summary": summaries,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted if run.attempted else 1.0,
        "mismatches": run.mismatches,
        "errors": run.errors,
    }
    print(f"{name}: {run.attempted} operations, {run.failed} failed (failed_frac {entry['failed_frac']:.4g})")
    for metric, unit in E2E_METRICS:
        if metric in summaries:
            print(format_summary(metric, unit, summaries[metric]))
    for line in run.mismatches + run.errors:
        print(f"  FAILED {line}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace_dir is None:
        ok = ok and all(metric in summaries for metric, _ in E2E_METRICS)
        for metric, unit in E2E_METRICS:
            if metric in summaries:
                metrics[metric] = {"value": summaries[metric]["median"], "unit": unit}
    elif run.trace is not None and run.traced_wall_s is not None and "wall_s" in summaries:
        layers = layer_metrics(run.trace, summaries["wall_s"]["median"], run.traced_wall_s)
        entry["layers"] = layers
        path = trace_dir / f"{name}.layers.json"
        detail = {"workload": name, "seed": run.seed, "metrics": layers, **run.trace}
        path.write_text(json.dumps(detail, indent=2) + "\n")
        metrics = {metric: {"value": layers[metric], "unit": unit} for metric, unit, _ in per_layer_metrics()}
        print(f"  traced: {run.traced_wall_s:.3f} s; layers in {path}")
    else:
        ok = False
    return entry, metrics, ok


def main(argv: Sequence[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.experiments.results import git_metadata
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    out: Path = args.out.resolve()
    runs = [WorkloadRun(WORKLOADS[name], args.seed, out) for name in args.workloads]
    trace = bool(args.trace)
    trace_dir = out / "trace"
    rounds = measure(runs, Children(out), args.repeats, args.seconds, trace_dir if trace else None)

    expected: Dict[str, Any] = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    pins = expected.setdefault(str(args.seed), {})
    correct = True
    metrics: Dict[str, Dict[str, Any]] = {}
    record: Dict[str, Any] = {
        "bench": "e2e",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "git": git_metadata(ROOT),
        "argv": list(argv),
        "seed": args.seed,
        "trace": trace,
        "rounds": rounds,
        "workloads": {},
    }
    for run in runs:
        name = run.workload.name
        reference = run.check(None if args.write_expected else pins.get(name))
        if args.write_expected and not run.failed and not run.errors:
            pins[name] = reference
        entry, values, ok = report(run, trace_dir if trace else None)
        correct = correct and ok
        prefix = f"{name}." if len(runs) > 1 else ""
        metrics.update({prefix + metric: value for metric, value in values.items()})
        record["workloads"][name] = entry

    if args.write_expected:
        if correct:
            EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
            print(f"pinned digests for seed {args.seed} in {EXPECTED_PATH}")
        else:
            print("digests disagree across repeats; expected.json left unchanged")
    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (records / f"{stamp}-{'trace' if trace else 'e2e'}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
