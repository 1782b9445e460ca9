"""One measured action of the end-to-end benchmark, in a fresh interpreter.

``run.py`` starts this script for every set-up probe, every repeat and
the resume preparation, so each measurement begins from a cold process::

    python child.py <request.json> <result.json>

The request's ``mode`` selects the action:

``setup``
    Import ``repro.experiments`` and ``repro.plots``, resolve the
    workload's backend and run one trivial ``map`` item per worker.  The
    result is the ``time.monotonic()`` reading when that is done; the
    parent subtracts the reading it took before starting the process.
``prep``
    Run the workload once into ``prep_dir`` and delete every other cached
    cell (sorted by name), leaving a half-filled cache to resume from.
``repeat``
    Set up untimed, then time the workload's action: ``run_paper`` into
    ``run_dir`` (a fresh directory, or a copy of the prepared one plus
    ``render_run`` for a resume workload).  With ``trace_dir`` the action
    runs under cProfile and the span wrappers of :mod:`tracing`.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pickle
import pstats
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

#: ``ru_maxrss`` unit in bytes: kibibytes on Linux, bytes on macOS.
RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def digest(rows: object) -> str:
    """sha256 of a figure's canonical rows JSON."""
    return hashlib.sha256(json.dumps(rows, sort_keys=True, default=str).encode("utf-8")).hexdigest()


def warm_backend(workers: int) -> Any:
    """``resolve_backend(workers=...)`` with every worker started."""
    from repro.experiments import resolve_backend

    backend = resolve_backend(workers=workers)
    backend.map(abs, range(backend.workers))
    return backend


def setup(request: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments import close_shared_backends
    from repro.plots import render_run  # noqa: F401 - importing the renderer is part of set-up

    warm_backend(int(request["workers"]))
    ready = time.monotonic()
    close_shared_backends()
    return {"ready": ready}


def prep(request: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments import close_shared_backends, run_paper
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    run_dir = Path(request["prep_dir"])
    shutil.rmtree(run_dir, ignore_errors=True)
    backend = warm_backend(workload.workers)
    rows = run_paper(backend=backend, out_dir=run_dir, **workload.run_kwargs(int(request["seed"])))
    close_shared_backends()
    for path in sorted((run_dir / "cells").glob("*.pkl"))[::2]:
        path.unlink()
    return {"digests": {name: digest(figure_rows) for name, figure_rows in rows.items()}}


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def repeat(request: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments import close_shared_backends, run_paper
    from repro.plots import render_run
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    run_dir = Path(request["run_dir"])
    shutil.rmtree(run_dir, ignore_errors=True)
    if workload.resume:
        shutil.copytree(request["prep_dir"], run_dir)
    kwargs = workload.run_kwargs(int(request["seed"]))

    tracer = None
    render: Callable[..., Dict[str, Path]] = render_run
    if request.get("trace_dir"):
        from tracing import Tracer

        worker_dir = Path(request["trace_dir"]) / f"{workload.name}.workers"
        shutil.rmtree(worker_dir, ignore_errors=True)
        worker_dir.mkdir(parents=True)
        # Installed before the pool starts, so forked workers inherit it.
        tracer = Tracer(worker_dir)
        install_spans(tracer)
        render = tracer.wrap(render_run, "render", "plots")
    backend = warm_backend(workload.workers)
    profiler = cProfile.Profile() if tracer is not None else None

    rows: Dict[str, List[dict]] = {}
    rendered: Dict[str, Path] = {}
    error: Optional[str] = None
    self_before = _cpu_s(resource.RUSAGE_SELF)
    children_before = _cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        rows = run_paper(backend=backend, out_dir=run_dir, **kwargs)
        if workload.resume:
            rendered = render(run_dir)
    except Exception:
        error = traceback.format_exc()
    finally:
        if profiler is not None:
            profiler.disable()
    wall_s = time.perf_counter() - start
    self_after = _cpu_s(resource.RUSAGE_SELF)
    # Reap the pool so its workers' CPU time lands in RUSAGE_CHILDREN.
    close_shared_backends()
    cpu_s = (self_after - self_before) + (_cpu_s(resource.RUSAGE_CHILDREN) - children_before)
    peak_rss = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result: Dict[str, Any] = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss * RSS_UNIT / 2**20,
        "digests": {name: digest(figure_rows) for name, figure_rows in rows.items()},
        "error": error,
    }
    if tracer is not None and profiler is not None:
        spans = tracer.collect()
        trace_dir = Path(request["trace_dir"])
        with (trace_dir / f"{workload.name}.spans.jsonl").open("w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        shutil.rmtree(tracer.worker_dir, ignore_errors=True)
        result["trace"] = trace_counts(pstats.Stats(profiler).stats, spans, run_dir, backend.workers, len(rendered))
    return result


def install_spans(tracer: Any) -> None:
    """Span wrappers on the public boundary functions the trace reads."""
    import importlib

    from repro.experiments import parallel, presets
    from repro.experiments.results import CellStore
    from repro.sim.engine import Simulator
    from workloads import JOBS

    def engine_counters(args: tuple) -> Dict[str, int]:
        sim = args[0]
        return {"events": sim.events_processed, "heap_compactions": sim.heap_compactions}

    def span(owner: Any, attribute: str, name: str, layer: str, counters: Any = None) -> None:
        setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), name, layer, counters))

    span(Simulator, "run", "sim.run", "sim.engine", engine_counters)
    span(parallel.ScenarioSpec, "build", "cell", "experiments")
    # ScenarioSpec.__call__ is bound to the original build at class creation.
    parallel.ScenarioSpec.__call__ = parallel.ScenarioSpec.build
    span(parallel.ParallelRunner, "run_grids", "simulate", "experiments")
    span(CellStore, "get", "cells.get", "experiments.results")
    span(CellStore, "put", "cells.put", "experiments.results")
    # run_paper calls the save_run name it imported into presets.
    span(presets, "save_run", "persist", "experiments.results")
    for job in JOBS.values():
        if job.kind == "metric":
            module = importlib.import_module(job.module)
            setattr(module, f"{job.name}_plan", tracer.span_plan_builder(job.planner()))


def trace_counts(
    stats: Any,
    spans: List[Dict[str, Any]],
    run_dir: Path,
    workers: int,
    rendered: int,
) -> Dict[str, Any]:
    """Everything the traced repeat measured, before the parent adds the
    untimed reference (``run.py`` turns this into the per-layer metrics)."""
    import repro
    from repro.core.cache import PacketCache
    from repro.mac.tdma import TdmaMac
    from repro.routing.dijkstra import shortest_path_tree
    from repro.routing.link_state import LinkStateRouting
    from repro.sim.channel import Channel
    from repro.sim.spatial import SpatialGrid
    from repro.transport.tcp_sack import TcpSackSender
    from tracing import bench_layer, module_of, ncalls, rollup, span_summary

    src_root = Path(repro.__file__).resolve().parent.parent
    layers_by_file: Dict[str, Optional[str]] = {}

    def layer_of_file(filename: str) -> Optional[str]:
        if filename not in layers_by_file:
            module = module_of(filename, src_root)
            layers_by_file[filename] = bench_layer(module) if module is not None else None
        return layers_by_file[filename]

    counted = {
        "sim.channel.link_draws": Channel.transmission_succeeds,
        "sim.channel.position_updates": Channel.set_position,
        "sim.channel.neighbor_recomputes": SpatialGrid.neighbors_within,
        "routing.dijkstra_runs": shortest_path_tree,
        "routing.topology_changes": LinkStateRouting.on_topology_change,
        "mac.enqueues": TdmaMac.enqueue,
        "core.cache_lookups": PacketCache.lookup,
        "transport.tcp_rto_reads": TcpSackSender.__dict__["rto"],
    }
    manifest = json.loads((run_dir / "manifest.json").read_text())
    totals: Dict[str, float] = {}
    for path in sorted((run_dir / "cells").glob("*.pkl")):
        # The cells were written by run_paper in this very run.
        metrics = pickle.loads(path.read_bytes()).metrics
        for field in (
            "link_transmissions",
            "queue_drops",
            "cache_recoveries",
            "source_retransmissions",
            "energy_joules",
            "delivered_bytes",
            "fault_events",
        ):
            totals[field] = totals.get(field, 0) + getattr(metrics, field)
    return {
        "rollup": rollup(stats, layer_of_file),
        "ncalls": {name: ncalls(stats, function) for name, function in counted.items()},
        "spans": span_summary(spans),
        "engine": {
            key: sum(span.get(key, 0) for span in spans if span["name"] == "sim.run")
            for key in ("events", "heap_compactions")
        },
        "cell_ms": [1e3 * (span["end"] - span["start"]) for span in spans if span["name"] == "cell"],
        "cells": manifest["metadata"].get("cells", {}),
        "totals": totals,
        "bytes_written": sum(path.stat().st_size for path in run_dir.rglob("*") if path.is_file()),
        "rendered": rendered,
        "workers": workers,
    }


MODES = {"setup": setup, "prep": prep, "repeat": repeat}


def main(argv: List[str]) -> int:
    request_path, result_path = argv
    request = json.loads(Path(request_path).read_text())
    result = MODES[request["mode"]](request)
    Path(result_path).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
