"""Per-layer measurement for the end-to-end benchmark, from outside ``src/``.

Two instruments, both installed by the benchmark and neither by the
library:

* **cProfile rolled up by layer.**  Every profiled function belongs to
  the layer :func:`bench_layer` names for its module.  Standard-library
  and builtin self time is charged to the calling layer through the
  pstats caller edges (:func:`rollup`), except the blocking primitives
  (lock waits, ``select``, ``sleep``, ``waitpid``), which are the
  process waiting and go to ``wait_s``.  Time with no repro caller at
  all is the benchmark's own glue and goes to ``unattributed_s``.
* **Spans on public boundary functions** (:class:`Tracer`).  Each span
  records ``{id, parent, name, layer, pid, start, end}`` plus optional
  counter deltas.  Spans stay in memory; forked pool workers inherit the
  wrappers and append their spans to one file per pid, merged at the end.
  A span's self time is its duration minus the time its child spans
  cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.checks.layers import layer_of

#: The layers the benchmark reports, in DAG order.  ``sim`` is split by
#: module and metric collection is carved out of ``sim`` and ``experiments``.
LAYER_NAMES: Tuple[str, ...] = (
    "util",
    "sim.engine",
    "sim.channel",
    "sim.node",
    "sim.faults",
    "metrics",
    "mac",
    "routing",
    "core",
    "transport",
    "experiments",
    "experiments.results",
    "plots",
    "checks",
)

#: ``repro.sim`` modules by bench layer.  Deliberately exhaustive: a new
#: ``sim`` module has no layer until it is added here (the tests check).
SIM_MODULES: Dict[str, str] = {
    "": "sim.engine",  # the package __init__: re-exports only
    "engine": "sim.engine",
    "random": "sim.engine",
    "profile": "sim.engine",
    "channel": "sim.channel",
    "spatial": "sim.channel",
    "topology": "sim.channel",
    "mobility": "sim.channel",
    "node": "sim.node",
    "network": "sim.node",
    "queue": "sim.node",
    "faults": "sim.faults",
    "stats": "metrics",
    "trace": "metrics",
}

#: Modules carved out of their declared layer.
CARVED: Dict[str, str] = {
    "repro.experiments.metrics": "metrics",
    "repro.experiments.results": "experiments.results",
}

#: Declared layers (``repro.checks.layers``) folded into a coarser bench layer.
FOLDED: Dict[str, str] = {
    "": "util",  # the package root: re-exports only
    "plots.spec": "plots",
    "experiments.remote": "experiments",
}

#: Builtins whose self time is the process blocked, not computing.
BLOCKING = (
    "acquire' of '_thread.lock",
    "acquire' of '_thread.RLock",
    "select.",
    "time.sleep",
    "posix.waitpid",
)


def bench_layer(module: str) -> Optional[str]:
    """The bench layer of a dotted ``repro`` module, or ``None`` if it has none."""
    if module in CARVED:
        return CARVED[module]
    declared = layer_of(module)
    if declared is None:
        return None
    if declared == "sim":
        parts = module.split(".")
        return SIM_MODULES.get(parts[2] if len(parts) > 2 else "")
    layer = FOLDED.get(declared, declared)
    return layer if layer in LAYER_NAMES else None


def module_of(filename: str, src_root: Path) -> Optional[str]:
    """The dotted module of a source file under ``src_root``, else ``None``."""
    try:
        relative = Path(filename).resolve().relative_to(src_root)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


# -- cProfile rollup -------------------------------------------------------------------

#: A pstats function key: ``(filename, firstlineno, name)``.
Func = Tuple[str, int, str]
#: ``pstats.Stats(...).stats``: ``{func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}``.
StatsDict = Mapping[Func, Tuple[int, int, float, float, Mapping[Func, Tuple[int, int, float, float]]]]

WAIT = "wait"
UNATTRIBUTED = "unattributed"


def _is_blocking(func: Func) -> bool:
    return func[0] == "~" and any(marker in func[2] for marker in BLOCKING)


def rollup(stats: StatsDict, layer_of_file: Callable[[str], Optional[str]]) -> Dict[str, Any]:
    """Per-layer self time and cross-layer calls from a pstats dict.

    ``layer_of_file`` names the layer of a source file, ``None`` outside
    the program.  Self time of a function outside the program is split
    over its caller edges in proportion to the edge's own self time and
    charged to each caller's layer, recursively through callers that are
    themselves outside the program.  Blocking builtins are charged to
    ``wait`` and time that reaches no program frame to ``unattributed``.

    A call into a layer counts in ``calls_in`` when its caller belongs to
    another layer; a caller outside the program belongs to the layer that
    makes most of the calls into it, so the counts stay deterministic.
    """
    own: Dict[Func, Optional[str]] = {func: layer_of_file(func[0]) for func in stats}
    memo: Dict[Tuple[Func, bool], Dict[str, float]] = {}

    def charge(func: Func, by_time: bool, visiting: FrozenSet[Func] = frozenset()) -> Dict[str, float]:
        """Fractions of ``func``'s self time (or calls) by layer; they sum to 1."""
        layer = own[func]
        if layer is not None:
            return {layer: 1.0}
        if _is_blocking(func):
            return {WAIT: 1.0}
        if (func, by_time) in memo:
            return memo[func, by_time]
        visiting = visiting | {func}
        # Edges that close a cycle (recursion) carry no information about
        # who called the cycle in; the remaining edges decide.
        callers = {caller: edge for caller, edge in stats[func][4].items() if caller not in visiting}
        # Edges too short to register any self time fall back to counts.
        timed = by_time and any(edge[2] > 0 for edge in callers.values())
        weights: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[2] if timed else edge[0]
            parts = charge(caller, by_time, visiting) if caller in stats else {UNATTRIBUTED: 1.0}
            for name, fraction in parts.items():
                weights[name] = weights.get(name, 0.0) + weight * fraction
        total = sum(weights.values())
        result = {name: value / total for name, value in weights.items()} if total > 0 else {UNATTRIBUTED: 1.0}
        memo[func, by_time] = result
        return result

    def caller_layer(caller: Func) -> str:
        parts = charge(caller, by_time=False)
        return max(sorted(parts), key=parts.__getitem__)

    self_s = dict.fromkeys((*LAYER_NAMES, WAIT, UNATTRIBUTED), 0.0)
    calls_in = dict.fromkeys(LAYER_NAMES, 0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        for name, fraction in charge(func, by_time=True).items():
            self_s[name] += tottime * fraction
        layer = own[func]
        if layer is None:
            continue
        for caller, edge in callers.items():
            if caller in stats and caller_layer(caller) != layer:
                calls_in[layer] += edge[0]
    total = sum(self_s.values())
    layers = {
        name: {
            "self_s": self_s[name],
            "share": self_s[name] / total if total > 0 else 0.0,
            "calls_in": calls_in[name],
        }
        for name in LAYER_NAMES
    }
    return {
        "total_s": total,
        "layers": layers,
        "wait_s": self_s[WAIT],
        "unattributed_s": self_s[UNATTRIBUTED],
    }


def function_key(function: Callable[..., Any]) -> Func:
    """The pstats key of a Python function (or a property's getter)."""
    if isinstance(function, property) and function.fget is not None:
        function = function.fget
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def ncalls(stats: StatsDict, function: Callable[..., Any]) -> int:
    """How often ``function`` was called in the profile (0 if never)."""
    entry = stats.get(function_key(function))
    return int(entry[1]) if entry is not None else 0


# -- percentiles -----------------------------------------------------------------------

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of a percentile (the epsilon absorbs 0.9 * 100 = 90.00000000000001)."""
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` of the highest percentile with >= 10 samples beyond it.

    ``None`` when the sample is too small for any candidate (below 20
    samples not even the median has ten beyond it).
    """
    count = len(values)
    for pct in TAIL_PERCENTILES:
        if count - _rank(pct, count) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


# -- spans -----------------------------------------------------------------------------


class Tracer:
    """Spans around public boundary functions, patched in from outside.

    :meth:`wrap` returns a span-recording wrapper for the caller to
    install.  A wrapper that runs in a process other than the one that
    created the tracer (a forked pool worker) appends its span to
    ``<worker_dir>/spans-<pid>.jsonl`` instead of the in-memory list,
    because pool workers leave through ``os._exit`` without running
    exit hooks.
    """

    def __init__(self, worker_dir: Path) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._count = 0

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        layer: str,
        counters: Optional[Callable[[Tuple[Any, ...]], Dict[str, int]]] = None,
    ) -> Callable[..., Any]:
        """``function`` wrapped in a span; ``counters(args)`` deltas are recorded."""
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            before = counters(args) if counters is not None else None
            span = tracer._open(name, layer)
            try:
                return function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if before is not None and counters is not None:
                    after = counters(args)
                    span.update({key: after[key] - before[key] for key in before})
                tracer._close(span)

        return traced

    def span_plan_builder(self, builder: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a ``<figure>_plan`` builder: the call is a ``plan`` span and
        the returned plan's ``aggregate`` an ``aggregate`` span."""
        planned = self.wrap(builder, "plan", "experiments")

        @functools.wraps(builder)
        def plan(*args: Any, **kwargs: Any) -> Any:
            result = planned(*args, **kwargs)
            return dataclasses.replace(result, aggregate=self.wrap(result.aggregate, "aggregate", "experiments"))

        return plan

    def _open(self, name: str, layer: str) -> Dict[str, Any]:
        pid = os.getpid()
        self._count += 1
        span = {
            "id": f"{pid}-{self._count}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "pid": pid,
            "start": time.perf_counter(),
            "end": None,
        }
        # Each process has its own copy of the stack after a fork.
        self._stack.append(span["id"])
        return span

    def _close(self, span: Dict[str, Any]) -> None:
        self._stack.pop()
        if span["pid"] == self.pid:
            self.spans.append(span)
            return
        with (self.worker_dir / f"spans-{span['pid']}.jsonl").open("a") as handle:
            handle.write(json.dumps(span) + "\n")

    def collect(self) -> List[Dict[str, Any]]:
        """This process's spans plus every worker's, workers parented by time.

        A worker span has no in-process parent; it is attached to the
        ``simulate`` span whose interval contains it.
        """
        spans = list(self.spans)
        simulate = [span for span in spans if span["name"] == "simulate"]
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                span = json.loads(line)
                for outer in simulate:
                    if span["parent"] is None and outer["start"] <= span["start"] <= outer["end"]:
                        span["parent"] = outer["id"]
                spans.append(span)
        return sorted(spans, key=lambda span: span["start"])


def span_summary(spans: Iterable[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total duration and self time (seconds).

    Self time is a span's duration minus the union of its children's
    intervals (children of a worker-side span live in the same process,
    so the union never double-counts parallel work).
    """
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        entry = summary.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "layer": span["layer"]})
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered
    return summary
