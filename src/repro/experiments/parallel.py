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
  results, so :func:`~repro.experiments.runner.summarize` and
  :func:`~repro.experiments.runner.metric_values` accept either.
* :class:`ScenarioSpec` — a picklable ``builder(seed)`` callable naming
  one of the scenario families of :data:`SCENARIO_BUILDERS` ("linear",
  "random", "mobile", "testbed" and the four single-run trace
  scenarios) plus its keyword arguments.  Specs are the unit of work
  for figure grids and the recommended builder for parallel runs.
* :class:`ParallelRunner` — the execution front-end.  It delegates to a
  pluggable :class:`~repro.experiments.backends.ExecutorBackend`:
  ``workers=0`` or ``1`` select the in-process
  :class:`~repro.experiments.backends.SerialBackend` (today's exact
  serial semantics, no pool); ``workers=N`` (default
  ``os.cpu_count()``) selects the **shared, persistent**
  :class:`~repro.experiments.backends.ProcessBackend` for that worker
  count, so consecutive figure calls reuse one pool instead of forking
  a new one each; and ``backend=`` accepts any backend instance (a
  private ``ProcessBackend``, say) outright.  Because every
  scenario is fully determined by its seed and results are collected in
  submission order, the aggregated output is bit-identical for every
  backend and worker count.  :meth:`ParallelRunner.run_grids` extends
  this to whole figure *sets*: several figures' grids go down as one
  interleaved task stream (no pool drain between figures) and come back
  demultiplexed per grid, bit-identical to per-figure submission; a
  ``(spec, seed)`` cell that several grids plan runs once and its record
  goes to each of them.  With
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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, cast

from repro.experiments.backends import ExecutorBackend, resolve_backend
from repro.experiments.metrics import ScenarioMetrics
from repro.experiments.results import cell_content
from repro.experiments.scenarios import (
    Row,
    ScenarioResult,
    attempt_bound_scenario,
    backoff_scenario,
    feedback_rate_scenario,
    linear_scenario,
    mobile_scenario,
    random_scenario,
    rate_adaptation_scenario,
    testbed_scenario,
)
from repro.sim.random import RandomStreams

#: Scenario families a :class:`ScenarioSpec` may name.
SCENARIO_BUILDERS: Dict[str, Callable[..., ScenarioResult]] = {
    "linear": linear_scenario,
    "random": random_scenario,
    "mobile": mobile_scenario,
    "testbed": testbed_scenario,
    "attempt_bound": attempt_bound_scenario,
    "backoff": backoff_scenario,
    "feedback_rate": feedback_rate_scenario,
    "rate_adaptation": rate_adaptation_scenario,
}

@dataclass(frozen=True)
class ScenarioRecord:
    """A picklable summary of one finished scenario run.

    Unlike :class:`~repro.experiments.scenarios.ScenarioResult` it keeps
    no simulator state — only the extracted metrics, the tidy rows of a
    trace scenario (empty for every other) and an echo of what was run —
    so it can be returned from a worker process and stored or serialised
    cheaply.
    """

    seed: int
    scenario: str
    params: Dict[str, object]
    duration: float
    metrics: ScenarioMetrics
    rows: List[Row] = field(default_factory=list)

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
            rows=result.rows,
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


def _first_slots(tasks: Sequence[Tuple[Callable[[int], ScenarioResult], int]]) -> List[int]:
    """For every task, the first slot that holds the same cell.

    Two ``(ScenarioSpec, seed)`` tasks are the same cell when their
    :func:`~repro.experiments.results.cell_content` forms match *and*
    the tasks compare equal, so a collision of the stringified form can
    never merge different specs.  Builders that are not
    :class:`ScenarioSpec` are never shared.
    """
    firsts: List[int] = []
    seen: Dict[str, List[int]] = {}
    for slot, task in enumerate(tasks):
        builder, seed = task
        first = slot
        if isinstance(builder, ScenarioSpec):
            candidates = seen.setdefault(cell_content(builder.scenario, builder.params, seed), [])
            first = next((other for other in candidates if tasks[other] == task), slot)
            if first == slot:
                candidates.append(slot)
        firsts.append(first)
    return firsts


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

        Each distinct ``(ScenarioSpec, seed)`` cell runs **at most
        once** per call.  Figures compare against shared baselines, so
        grids often plan equal cells; the backend receives only the
        first slot of each such group, and every later slot of the group
        takes that slot's record (the same object).  Builders that are
        not :class:`ScenarioSpec` are always run per slot.

        ``progress``, if given, is called as ``progress(grid_index,
        completed, total)`` once per finished cell, where ``completed``
        counts that grid's finished cells and ``total`` is the grid's
        cell count.  Events arrive in *submission* order (the
        round-robin interleave), streamed through the backend's
        :meth:`~repro.experiments.backends.ExecutorBackend.imap` — a
        worker that races ahead is reported only when its submission
        slot is reached, which keeps the event sequence deterministic.
        A shared slot is reported at its own position, as soon as the
        first slot of its group has been delivered, so sharing leaves
        the event sequence exactly as it would be with every slot
        simulated.  The callback runs on the caller's thread; an
        exception it raises aborts the run.  Passing ``progress=None``
        (and neither hook below) uses the non-streaming
        :meth:`~repro.experiments.backends.ExecutorBackend.map` path.

        ``reuse`` and ``on_result`` are the incremental re-run hooks
        (what :func:`~repro.experiments.presets.run_paper` wires to its
        per-cell :class:`~repro.experiments.results.CellStore`).
        ``reuse(grid_index, spec, seed)`` is consulted once per slot
        before submission; a non-``None`` record fills the slot
        without the backend ever seeing it, and also fills every other
        slot of its group, so a group with any cached member is not
        simulated at all.  Reused slots are counted (and reported to
        ``progress``) first, in submission order, then the remaining
        slots stream as usual — so a resumed run's event sequence is
        the cached burst followed by live completions.
        ``on_result(grid_index, spec, seed, record)`` is called for
        every slot ``reuse`` did not fill — shared and cache-filled
        slots included — in submission order as it arrives (before the
        ``progress`` event for that slot), which is what lets a caller
        persist cells incrementally under each grid's own key: every
        cell reported complete is already on disk.  Neither hook
        changes the returned records — reuse callers are responsible
        for returning records equal to what the cell would compute.
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
        # A group of equal cells is keyed by its first slot, which always
        # precedes the others in submission order.
        firsts = _first_slots(tasks)
        totals = [len(grid_tasks) for grid_tasks in per_grid_tasks]
        completed = [0] * len(per_grid_tasks)
        # Records are matched back to their home (grid, task index).
        demuxed: List[List[Optional[ScenarioRecord]]] = [
            [None] * len(tasks) for tasks in per_grid_tasks
        ]
        # The record of each group known so far, keyed by first slot.
        known: Dict[int, ScenarioRecord] = {}
        # Reused cells first: fill their slots (and report them) in
        # submission order, without ever submitting them.
        fresh_slots: List[int] = []
        for slot, (grid_index, task_index) in enumerate(order):
            cached = None
            if reuse is not None:
                builder, seed = tasks[slot]
                cached = reuse(grid_index, builder, seed)
            if cached is None:
                fresh_slots.append(slot)
                continue
            known.setdefault(firsts[slot], cached)
            demuxed[grid_index][task_index] = cached
            completed[grid_index] += 1
            if progress is not None:
                progress(grid_index, completed[grid_index], totals[grid_index])
        # Only a group's first slot is simulated, and only when no member
        # of the group was reused.
        run = [tasks[slot] for slot in fresh_slots if firsts[slot] == slot and slot not in known]
        streaming = progress is not None or on_result is not None
        results_iter = self.backend.imap(_run_task, run) if streaming else iter(self.run_tasks(run))
        for slot in fresh_slots:
            grid_index, task_index = order[slot]
            if firsts[slot] not in known:
                # ``slot`` is the group's first: its record is next.
                known[slot] = next(results_iter)
            record = demuxed[grid_index][task_index] = known[firsts[slot]]
            if on_result is not None:
                builder, seed = tasks[slot]
                on_result(grid_index, builder, seed, record)
            completed[grid_index] += 1
            if progress is not None:
                progress(grid_index, completed[grid_index], totals[grid_index])
        # One more step lets a streaming backend close its batch.
        if next(results_iter, None) is not None:
            raise RuntimeError("the backend returned more records than tasks")
        grouped: List[List[List[ScenarioRecord]]] = []
        for (specs, seeds), flat in zip(grids, demuxed, strict=True):
            per_spec = len(seeds)
            # Every slot was filled above, so the Optional placeholder
            # type can be discharged wholesale.
            filled = cast(List[ScenarioRecord], flat)
            grouped.append(
                [filled[i * per_spec:(i + 1) * per_spec] for i in range(len(specs))]
            )
        return grouped
