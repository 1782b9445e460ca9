"""Pluggable executor backends for the experiment harness.

A full-paper reproduction is a long sequence of figure calls, each of
which fans replicated simulation runs out over workers.  Historically
every call built (and tore down) its own process pool, so a multi-figure
run paid fork/teardown cost once per figure.  This module turns the
execution strategy into a first-class object:

* :class:`ExecutorBackend` — the abstract strategy.  A backend maps a
  picklable function over a list of items, **in order**, and owns
  whatever worker resources that takes.  :meth:`ExecutorBackend.map`
  returns the whole batch; :meth:`ExecutorBackend.imap` streams the
  same results incrementally (still in item order) for progress
  reporting.  Backends are context managers and are safe to close more
  than once; a closed backend restarts lazily on its next use.
* :class:`SerialBackend` — runs everything in the calling process, no
  pool at all.  Byte-for-byte the historical ``workers=1`` semantics
  that the reproducibility tests pin.
* :class:`ProcessBackend` — a **persistent**, lazily-started pool of
  worker processes driven by :mod:`repro.experiments.scheduler`.  The
  workers start on first use and are reused across figure calls (the
  same worker PIDs serve every call), amortising fork cost over a whole
  paper run.  Cells are sharded across workers behind a bounded
  in-flight window (backpressure against a slow consumer), and crashed
  / raising / hung cells are retried with capped exponential backoff
  before the batch fails loudly with
  :class:`~repro.experiments.scheduler.CellError`.  See
  ``docs/distributed.md`` for the architecture and both knobs.

Module helpers:

* :func:`shared_backend` — the per-process registry of shared
  :class:`ProcessBackend` instances, keyed by worker count.  This is
  what makes "one pool for the whole paper run" the default: every
  figure call that asks for the same worker count gets the same pool.
* :func:`resolve_backend` — the single place that turns a
  ``workers=``/``backend=`` pair into a backend instance.  ``workers``
  of ``0`` or ``1`` mean :class:`SerialBackend`; anything else is a
  shared :class:`ProcessBackend`.
* :func:`workers_from_env` — ``REPRO_WORKERS`` plumbing shared by the
  benchmark harness and the examples (``0`` means the serial backend).

Every backend must preserve the harness invariant: because each
simulation run is fully determined by its seed and results come back in
submission order, **aggregates are bit-identical no matter which backend
ran them**.  ``tests/test_backends.py`` pins that cross-backend.

That same contract is what makes batched multi-figure submission safe:
:meth:`~repro.experiments.parallel.ParallelRunner.run_grids` interleaves
several figures' cells into one :meth:`ExecutorBackend.map` call and
demultiplexes the ordered results back per figure, so a full-paper run
is a single drain of a single pool regardless of backend.
"""

from __future__ import annotations

import os
import pickle
import threading
from abc import ABC, abstractmethod
from types import TracebackType
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Type, TypeVar

from repro.experiments.scheduler import CellError, Scheduler

_T = TypeVar("_T")

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ProcessBackend",
    "CellError",
    "resolve_backend",
    "shared_backend",
    "close_shared_backends",
    "workers_from_env",
]


def workers_from_env(default: Optional[int] = None) -> Optional[int]:
    """Worker count requested via the ``REPRO_WORKERS`` environment variable.

    Unset (or empty) returns ``default``.  ``0`` consistently means "use
    the serial backend" everywhere the variable is honoured —
    :func:`resolve_backend` maps both ``0`` and ``1`` to
    :class:`SerialBackend`.
    """
    value = os.environ.get("REPRO_WORKERS", "").strip()
    if not value:
        return default
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {value!r}") from None
    if workers < 0:
        raise ValueError(f"REPRO_WORKERS must be >= 0, got {workers}")
    return workers


class ExecutorBackend(ABC):
    """Execution strategy: map a function over items, preserving order.

    Subclasses own their worker resources.  The contract every backend
    must honour:

    * :meth:`map` returns one result per item, **in item order** — that
      ordering (plus seed-determinism of the simulations) is what makes
      aggregates bit-identical across backends.
    * :meth:`close` is idempotent, and a closed backend may be used
      again: resources restart lazily on the next :meth:`map`.
    * Backends are context managers; leaving the ``with`` block closes
      them.
    """

    #: Short backend name, recorded in run manifests.
    name: str = "abstract"
    #: Degree of parallelism this backend was configured for.
    workers: int = 1
    #: Monotonic count of items accepted through :meth:`map`/:meth:`imap`
    #: over this backend's lifetime.  Internal recovery re-runs and
    #: scheduler-level retries do **not** count: the number reflects the
    #: caller-visible task load, which is what the resume tests use to
    #: prove that cached cells were loaded rather than re-simulated.
    tasks_submitted: int = 0

    def _record_submission(self, count: int) -> None:
        """Bump :attr:`tasks_submitted` (subclasses call this once per batch)."""
        self.tasks_submitted += count

    @abstractmethod
    def map(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> List[_T]:
        """Apply ``fn`` to every item and return the results in order."""

    @abstractmethod
    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """Yield ``fn(item)`` results **in item order** as they complete.

        The streaming counterpart of :meth:`map`, consumed by the
        harness's per-cell progress reporting
        (:meth:`~repro.experiments.parallel.ParallelRunner.run_grids`
        with a ``progress=`` callback).  The ordering contract is the
        same as :meth:`map`'s; only the delivery is incremental, so a
        caller can observe completion counts while the batch runs.
        """

    def close(self) -> None:  # noqa: B027 - intentionally optional: poolless backends need no teardown
        """Release worker resources (idempotent; lazily restarts on reuse)."""

    @property
    def is_running(self) -> bool:
        """Whether the backend currently holds live worker resources."""
        return False

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutorBackend):
    """Run every task inline in the calling process — no pool at all.

    This is exactly the historical ``workers=1`` execution the
    reproducibility tests pin, and what ``workers=0`` (e.g. via
    ``REPRO_WORKERS=0``) resolves to.
    """

    name = "serial"

    def __init__(self) -> None:
        self.workers = 1

    def map(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> List[_T]:
        items = list(items)
        self._record_submission(len(items))
        return [fn(item) for item in items]

    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """True streaming: each task runs when its result is consumed."""
        items = list(items)
        self._record_submission(len(items))
        return (fn(item) for item in items)


def _positive_workers(workers: Optional[int]) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1 for a pooled backend, got {workers}")
    return workers


class ProcessBackend(ExecutorBackend):
    """A persistent pool of worker processes behind one dispatch loop.

    One :class:`~repro.experiments.scheduler.Scheduler` shards each
    batch across ``workers`` long-lived worker processes behind a
    bounded in-flight window of ``2 * workers`` results (backpressure
    against a slow ``imap`` consumer), and retries crashed, raising or
    hung cells with capped exponential backoff — respawning dead
    workers as it goes.  A cell that exhausts
    ``max_retries`` fails the whole batch with a
    :class:`~repro.experiments.scheduler.CellError` naming every
    failed cell, so a result grid can never contain a silent hole.  The
    dispatch loop runs in the caller's thread as it consumes results;
    one ``imap`` stream may be open at a time.

    The :class:`ExecutorBackend` contract is fully preserved: results
    come back in item order (``imap`` streams them as the submission
    frontier completes), the workers start lazily on the first
    :meth:`map` and are reused until :meth:`close`, :meth:`close` is
    idempotent with lazy restart, and aggregates are bit-identical to
    :class:`SerialBackend` for every worker count — retries re-run
    pure seed-determined simulations, never reorder delivery.
    Workers are daemon processes, so an interpreter that never closes
    its backend still exits.

    ``workers`` defaults to ``os.cpu_count()``.  Payloads must be
    picklable (workers are separate processes): unpicklable payloads
    raise :class:`TypeError` up front.

    ``max_retries`` (default 2) is the number of extra attempts a failed
    cell gets; ``task_timeout`` (default: none) kills and retries a cell
    running longer than that many seconds.  ``stats`` exposes
    cumulative scheduler counters (``retries``, ``respawns``,
    ``timeouts``, ``failures``) for tests and diagnostics.  See
    ``docs/distributed.md`` for the full architecture notes.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.workers = _positive_workers(workers)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0 seconds or None, got {task_timeout}")
        self._scheduler = Scheduler(self.workers, max_retries, task_timeout)

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative scheduler counters: retries, respawns, timeouts, failures."""
        return self._scheduler.stats

    @property
    def is_running(self) -> bool:
        return self._scheduler.is_running

    def worker_pids(self) -> FrozenSet[int]:
        """PIDs of the live worker processes (empty before first use / after close)."""
        return self._scheduler.worker_pids()

    def close(self) -> None:
        self._scheduler.close()

    def map(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> List[_T]:
        return list(self.imap(fn, items))

    def imap(self, fn: Callable[[Any], _T], items: Iterable[Any]) -> Iterator[_T]:
        """Stream results in item order as the submission frontier completes."""
        items = list(items)
        self._record_submission(len(items))
        if not items:
            return iter(())
        try:
            pickle.dumps((fn, items))
        except Exception:
            raise TypeError(
                "ProcessBackend payloads must be picklable (workers are separate "
                "processes); use a picklable builder such as ScenarioSpec"
            ) from None
        return self._scheduler.start(fn, items)


# -- the shared default pool -----------------------------------------------------------

_SHARED_POOLS: Dict[int, ProcessBackend] = {}
_SHARED_LOCK = threading.Lock()


def shared_backend(workers: Optional[int] = None) -> ProcessBackend:
    """The shared :class:`ProcessBackend` for the given worker count.

    Backends are cached per worker count for the life of the process, so
    every figure call asking for the same parallelism reuses one pool.
    ``workers=None`` means ``os.cpu_count()``.  Shared backends must not
    be closed by individual callers — :func:`close_shared_backends` tears
    them down (their daemon workers also die with the interpreter); a
    closed shared backend restarts lazily if used again.
    """
    key = _positive_workers(workers)
    with _SHARED_LOCK:
        backend = _SHARED_POOLS.get(key)
        if backend is None:
            backend = ProcessBackend(workers=key)
            _SHARED_POOLS[key] = backend
        return backend


def close_shared_backends() -> None:
    """Close and forget every shared backend (they restart lazily on reuse)."""
    with _SHARED_LOCK:
        backends = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for backend in backends:
        backend.close()


def resolve_backend(
    workers: Optional[int] = None,
    backend: Optional[ExecutorBackend] = None,
) -> ExecutorBackend:
    """Turn a ``workers=`` / ``backend=`` pair into a backend instance.

    Exactly one of the two may be given.  An explicit ``backend`` is
    returned as-is.  Otherwise ``workers`` selects a backend: ``0`` or
    ``1`` mean :class:`SerialBackend` (the historical serial semantics;
    ``REPRO_WORKERS=0`` lands here), and ``None`` or ``N > 1`` mean the
    :func:`shared_backend` process pool for that worker count.
    """
    if backend is not None:
        if workers is not None:
            raise ValueError("pass either workers= or backend=, not both")
        return backend
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers <= 1:
        # Matches the historical semantics: one worker (or a one-core
        # machine) runs serially in-process, with no pool at all.
        return SerialBackend()
    return shared_backend(workers)
