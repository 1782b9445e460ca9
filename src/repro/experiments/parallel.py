"""Parallel experiment execution.

The paper averages every linear-topology figure over twenty independent
runs and every random-topology figure over ten; replicating those runs
serially uses one core no matter the machine.  This module fans the
replications out over a process pool while keeping every result
bit-identical to a serial run:

* :class:`ScenarioRecord` — a picklable snapshot of a finished run
  (metrics plus a configuration echo, **no** live simulator state).
  :class:`~repro.experiments.scenarios.ScenarioResult` holds the whole
  :class:`~repro.sim.network.Network` and cannot cross a process
  boundary; workers therefore reduce each result to a record before
  returning it.  Records expose the same ``.metrics`` attribute as
  results, so :func:`~repro.experiments.runner.summarize`,
  :func:`~repro.experiments.runner.metric_values` and
  :func:`~repro.experiments.runner.average_metrics` accept either.
* :class:`ScenarioSpec` — a picklable ``builder(seed)`` callable naming
  one of the scenario families ("linear", "random", "mobile",
  "testbed") plus its keyword arguments.  Specs are the unit of work
  for grid sweeps and the recommended builder for parallel runs.
* :class:`ParallelRunner` — the execution front-end.  It delegates to a
  pluggable :class:`~repro.experiments.backends.ExecutorBackend`:
  ``workers=0`` or ``1`` select the in-process
  :class:`~repro.experiments.backends.SerialBackend` (today's exact
  serial semantics, no pool); ``workers=N`` (default
  ``os.cpu_count()``) selects the **shared, persistent**
  :class:`~repro.experiments.backends.ProcessBackend` for that worker
  count, so consecutive figure calls reuse one pool instead of forking
  a new one each; and ``backend=`` accepts any backend instance (a
  private or TCP-connected ``ProcessBackend``, say) outright.  Because every
  scenario is fully determined by its seed and results are collected in
  submission order, the aggregated output is bit-identical for every
  backend and worker count.  :meth:`ParallelRunner.run_grids` extends
  this to whole figure *sets*: several figures' grids go down as one
  interleaved task stream (no pool drain between figures) and come back
  demultiplexed per grid, bit-identical to per-figure submission.  With
  a ``progress=`` callback the same batch is consumed through the
  backend's streaming
  :meth:`~repro.experiments.backends.ExecutorBackend.imap`, reporting
  per-cell completion (in submission order) while the pool works —
  what :func:`~repro.experiments.presets.run_paper` surfaces as
  per-figure percentages.
* :func:`spawn_seeds` — deterministic per-replicate seed derivation via
  :meth:`~repro.sim.random.RandomStreams.spawn`, so "give me ten
  replications of base seed 7" names the same ten seeds everywhere.

Pickling contract: a :class:`ScenarioRecord` (and therefore everything
workers send back) must survive ``pickle.dumps`` — plain dataclasses,
enums, numbers, strings and containers thereof only.  Builders should
be picklable too (a :class:`ScenarioSpec` or a module-level function),
which is what lets a persistent pool outlive any single call.  A
process backend rejects unpicklable builders — lambdas and closures
included — with :class:`TypeError` before anything runs; the serial
backend (``workers=0`` or ``1``) accepts any callable.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union, cast

from repro.experiments.backends import ExecutorBackend, resolve_backend
from repro.experiments.metrics import ScenarioMetrics
from repro.experiments.scenarios import (
    ScenarioResult,
    linear_scenario,
    mobile_scenario,
    random_scenario,
    testbed_scenario,
)
from repro.sim.random import RandomStreams

Row = Dict[str, object]

#: Scenario families a :class:`ScenarioSpec` may name.
SCENARIO_BUILDERS: Dict[str, Callable[..., ScenarioResult]] = {
    "linear": linear_scenario,
    "random": random_scenario,
    "mobile": mobile_scenario,
    "testbed": testbed_scenario,
}

#: Metrics summarised by :meth:`ParallelRunner.sweep` unless overridden.
DEFAULT_SWEEP_ATTRIBUTES = ("energy_per_bit_microjoules", "goodput_kbps")


@dataclass(frozen=True)
class ScenarioRecord:
    """A picklable summary of one finished scenario run.

    Unlike :class:`~repro.experiments.scenarios.ScenarioResult` it keeps
    no simulator state — only the extracted metrics and an echo of what
    was run — so it can be returned from a worker process and stored or
    serialised cheaply.
    """

    seed: int
    scenario: str
    params: Dict[str, object]
    duration: float
    metrics: ScenarioMetrics

    @classmethod
    def from_result(
        cls,
        result: ScenarioResult,
        seed: int,
        scenario: str = "",
        params: Optional[Mapping[str, object]] = None,
    ) -> "ScenarioRecord":
        """Reduce a live result to its picklable record."""
        return cls(
            seed=int(seed),
            scenario=scenario,
            params=dict(params or {}),
            duration=result.duration,
            metrics=result.metrics,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable ``builder(seed)``: scenario family plus parameters.

    ``ScenarioSpec("linear", {"num_nodes": 5, "protocol": "jtp"})(seed)``
    is equivalent to ``linear_scenario(num_nodes=5, protocol="jtp",
    seed=seed)``.  Because the spec carries only plain data it can be
    shipped to worker processes, unlike a lambda closing over local
    state.
    """

    scenario: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_BUILDERS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; known: {sorted(SCENARIO_BUILDERS)}"
            )
        if "seed" in self.params:
            raise ValueError("the seed is supplied per replication, not in the spec")
        # Detach from the caller's dict so later mutation of it cannot
        # bypass the validation above or silently change the spec.
        object.__setattr__(self, "params", dict(self.params))

    def build(self, seed: int) -> ScenarioResult:
        """Run the scenario once with the given seed."""
        return SCENARIO_BUILDERS[self.scenario](seed=seed, **self.params)

    __call__ = build


def spawn_seeds(base_seed: int, count: int) -> List[int]:
    """Derive ``count`` deterministic replicate seeds from ``base_seed``.

    Uses :meth:`RandomStreams.spawn` so the derivation matches the
    stream-spawning used elsewhere: replicate ``i`` of base seed ``s``
    always names the same seed, independent of worker count or machine.
    """
    if count < 1:
        raise ValueError("at least one replicate seed is required")
    root = RandomStreams(base_seed)
    return [root.spawn(index + 1).seed for index in range(count)]


def _record_label(builder: Callable[[int], ScenarioResult]) -> Tuple[str, Dict[str, object]]:
    if isinstance(builder, ScenarioSpec):
        return builder.scenario, dict(builder.params)
    return getattr(builder, "__name__", type(builder).__name__), {}


def _run_task(task: Tuple[Callable[[int], ScenarioResult], int]) -> ScenarioRecord:
    builder, seed = task
    scenario, params = _record_label(builder)
    return ScenarioRecord.from_result(builder(seed), seed, scenario, params)


class ParallelRunner:
    """Fan ``builder(seed)`` replications out over an executor backend.

    ``workers=0`` or ``1`` execute serially in the current process with
    no pool at all — byte-for-byte today's serial semantics — which is
    what the reproducibility tests pin.  ``workers=N`` (default
    ``os.cpu_count()``) delegates to the shared persistent process pool
    for that worker count, and ``backend=`` accepts any
    :class:`~repro.experiments.backends.ExecutorBackend` instance
    directly (pass one or the other, not both).  Every backend must
    produce bit-identical aggregates, because each run is fully
    determined by its seed and records are collected in submission
    order.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: Optional[ExecutorBackend] = None,
    ) -> None:
        self.backend = resolve_backend(workers=workers, backend=backend)
        self.workers = self.backend.workers

    # -- core execution ---------------------------------------------------------------

    def run_tasks(
        self, tasks: Sequence[Tuple[Callable[[int], ScenarioResult], int]]
    ) -> List[ScenarioRecord]:
        """Run ``(builder, seed)`` tasks, preserving task order in the output."""
        if not tasks:
            return []
        return self.backend.map(_run_task, list(tasks))

    def replicate(
        self,
        builder: Callable[[int], ScenarioResult],
        seeds: Sequence[int],
    ) -> List[ScenarioRecord]:
        """Run ``builder(seed)`` for every seed; records come back in seed order."""
        if not seeds:
            raise ValueError("at least one seed is required")
        return self.run_tasks([(builder, seed) for seed in seeds])

    def run_grid(
        self,
        specs: Sequence[Callable[[int], ScenarioResult]],
        seeds: Sequence[int],
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> List[List[ScenarioRecord]]:
        """Run every spec × seed combination through one shared pool.

        Flattening the whole grid into a single task list keeps all
        workers busy even when individual cells have few seeds.  The
        result is aligned with ``specs``: one list of per-seed records
        per spec, in seed order.  ``progress``, if given, is called as
        ``progress(completed, total)`` after each cell finishes (see
        :meth:`run_grids` for the delivery contract).
        """
        grid_progress: Optional[Callable[[int, int, int], None]] = None
        if progress is not None:
            cell_progress = progress
            grid_progress = lambda _grid, done, total: cell_progress(done, total)
        return self.run_grids([(specs, seeds)], progress=grid_progress)[0]

    def run_grids(
        self,
        grids: Sequence[Tuple[Sequence[Callable[[int], ScenarioResult]], Sequence[int]]],
        progress: Optional[Callable[[int, int, int], None]] = None,
        reuse: Optional[
            Callable[[int, Callable[[int], ScenarioResult], int], Optional[ScenarioRecord]]
        ] = None,
        on_result: Optional[
            Callable[[int, Callable[[int], ScenarioResult], int, ScenarioRecord], None]
        ] = None,
    ) -> List[List[List[ScenarioRecord]]]:
        """Run several grids as **one** batched submission to the backend.

        ``grids`` is a sequence of ``(specs, seeds)`` pairs — typically
        one per figure.  Instead of draining the pool once per grid (the
        pre-batching behaviour, which left workers idle at every figure
        boundary), all grids' ``spec × seed`` tasks are interleaved
        round-robin across the grids and submitted as a single task
        stream, so short cells from one figure fill workers while
        another figure's long cells are still running.  The results are
        demultiplexed back per grid: element ``g`` of the return value
        is exactly what ``run_grid(*grids[g])`` would return —
        bit-identical, because every task is fully determined by its
        ``(spec, seed)`` pair and records are matched back to their
        submission slot, never to a worker or a completion order.

        ``progress``, if given, is called as ``progress(grid_index,
        completed, total)`` once per finished cell, where ``completed``
        counts that grid's finished cells and ``total`` is the grid's
        cell count.  Events arrive in *submission* order (the
        round-robin interleave), streamed through the backend's
        :meth:`~repro.experiments.backends.ExecutorBackend.imap` — a
        worker that races ahead is reported only when its submission
        slot is reached, which keeps the event sequence deterministic.
        The callback runs on the caller's thread; an exception it
        raises aborts the run.  Passing ``progress=None`` uses the
        non-streaming :meth:`~repro.experiments.backends.ExecutorBackend.map`
        path — byte-for-byte the historical behaviour.

        ``reuse`` and ``on_result`` are the incremental re-run hooks
        (what :func:`~repro.experiments.presets.run_paper` wires to its
        per-cell :class:`~repro.experiments.results.CellStore`).
        ``reuse(grid_index, spec, seed)`` is consulted once per cell
        before submission; a non-``None`` record fills the cell's slot
        without the backend ever seeing it.  Reused cells are counted
        (and reported to ``progress``) first, in submission order, then
        the remaining fresh cells stream as usual — so a resumed run's
        event sequence is the cached burst followed by live completions.
        ``on_result(grid_index, spec, seed, record)`` is called for each
        **fresh** record, in submission order as it arrives (before the
        ``progress`` event for that cell), which is what lets a caller
        persist cells incrementally: every cell reported complete is
        already on disk.  Neither hook changes the returned records —
        reuse callers are responsible for returning records equal to
        what the cell would compute.
        """
        grids = list(grids)
        per_grid_tasks: List[List[Tuple[Callable[[int], ScenarioResult], int]]] = []
        for specs, seeds in grids:
            if not seeds:
                raise ValueError("at least one seed is required")
            per_grid_tasks.append([(spec, seed) for spec in specs for seed in seeds])
        # Round-robin interleave: task k of every grid, then task k+1 of
        # every grid, and so on.  ``order`` remembers each submission
        # slot's home (grid, task index) so the demux below is exact.
        order: List[Tuple[int, int]] = []
        longest = max((len(tasks) for tasks in per_grid_tasks), default=0)
        for task_index in range(longest):
            for grid_index, tasks in enumerate(per_grid_tasks):
                if task_index < len(tasks):
                    order.append((grid_index, task_index))
        tasks = [per_grid_tasks[g][i] for g, i in order]
        if progress is None and reuse is None and on_result is None:
            records = self.run_tasks(tasks)
        else:
            totals = [len(grid_tasks) for grid_tasks in per_grid_tasks]
            completed = [0] * len(per_grid_tasks)
            slots: List[Optional[ScenarioRecord]] = [None] * len(order)
            # Reused cells first: fill their slots (and report them) in
            # submission order, without ever submitting them.
            fresh_slots: List[int] = []
            for slot, (grid_index, task_index) in enumerate(order):
                cached = None
                if reuse is not None:
                    builder, seed = per_grid_tasks[grid_index][task_index]
                    cached = reuse(grid_index, builder, seed)
                if cached is None:
                    fresh_slots.append(slot)
                    continue
                slots[slot] = cached
                completed[grid_index] += 1
                if progress is not None:
                    progress(grid_index, completed[grid_index], totals[grid_index])
            if fresh_slots:
                fresh_tasks = [tasks[slot] for slot in fresh_slots]
                streaming = progress is not None or on_result is not None
                results_iter = (
                    self.backend.imap(_run_task, fresh_tasks)
                    if streaming
                    else iter(self.run_tasks(fresh_tasks))
                )
                for slot, record in zip(fresh_slots, results_iter, strict=True):
                    grid_index, task_index = order[slot]
                    slots[slot] = record
                    if on_result is not None:
                        builder, seed = per_grid_tasks[grid_index][task_index]
                        on_result(grid_index, builder, seed, record)
                    completed[grid_index] += 1
                    if progress is not None:
                        progress(grid_index, completed[grid_index], totals[grid_index])
            records = cast(List[ScenarioRecord], slots)
        demuxed: List[List[Optional[ScenarioRecord]]] = [
            [None] * len(tasks) for tasks in per_grid_tasks
        ]
        for (grid_index, task_index), record in zip(order, records, strict=True):
            demuxed[grid_index][task_index] = record
        grouped: List[List[List[ScenarioRecord]]] = []
        for (specs, seeds), flat in zip(grids, demuxed, strict=True):
            per_spec = len(seeds)
            # Every slot was filled by the demux loop above, so the
            # Optional placeholder type can be discharged wholesale.
            filled = cast(List[ScenarioRecord], flat)
            grouped.append(
                [filled[i * per_spec:(i + 1) * per_spec] for i in range(len(specs))]
            )
        return grouped

    # -- sweeps -----------------------------------------------------------------------

    def sweep(
        self,
        scenario: str,
        grid: Mapping[str, Sequence[object]],
        seeds: Union[int, Sequence[int]],
        base_params: Optional[Mapping[str, object]] = None,
        attributes: Sequence[str] = DEFAULT_SWEEP_ATTRIBUTES,
        base_seed: int = 0,
    ) -> List[Row]:
        """Run a parameter grid and return tidy per-cell summary rows.

        ``grid`` maps parameter names (e.g. ``protocol``, ``num_nodes``,
        ``link_quality``, ``speed``) to the values to sweep; the cross
        product of all axes defines the cells.  ``seeds`` is either an
        explicit seed list or a replicate count, in which case the seeds
        are derived deterministically with :func:`spawn_seeds` from
        ``base_seed``.  Every row echoes its cell's parameters and, for
        each requested metric attribute, carries ``<attr>_mean`` and the
        95% confidence half-width ``<attr>_ci95``.
        """
        from repro.experiments.runner import confidence_interval

        if isinstance(seeds, int):
            seeds = spawn_seeds(base_seed, seeds)
        axes = list(grid)
        combos = list(itertools.product(*(grid[name] for name in axes)))
        specs = [
            ScenarioSpec(scenario, {**dict(base_params or {}), **dict(zip(axes, combo, strict=True))})
            for combo in combos
        ]
        rows: List[Row] = []
        for spec, records in zip(specs, self.run_grid(specs, seeds), strict=True):
            row: Row = {"scenario": scenario}
            row.update({name: spec.params[name] for name in axes})
            row["n"] = len(records)
            for attribute in attributes:
                values = [float(getattr(record.metrics, attribute)) for record in records]
                row[f"{attribute}_mean"] = statistics.fmean(values)
                row[f"{attribute}_ci95"] = confidence_interval(values)
            rows.append(row)
        return rows
