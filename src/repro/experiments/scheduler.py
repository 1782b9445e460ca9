"""The dispatch loop behind :class:`~repro.experiments.backends.ProcessBackend`.

This module is the scheduler half of the process backend: a pool of
persistent local worker processes (one duplex pipe each) driven by one
blocking dispatch loop that shards a batch of tasks across them.  The
backend-facing contract (ordered ``map``/``imap`` delivery, lazy start,
idempotent close) lives in :mod:`repro.experiments.backends`; this
module owns the worker processes and the scheduling policy:

* **Bounded in-flight window (backpressure).**  Task ``i`` is only
  dispatched once fewer than ``window`` results are unconsumed, i.e.
  ``i < consumed + window`` where ``consumed`` counts results the
  caller has actually pulled from the stream.  A slow ``imap`` consumer
  therefore throttles dispatch instead of accumulating an unbounded
  reorder buffer, and the reorder buffer (results completed out of
  submission order) can never exceed the window either.
* **Work stealing.**  When no fresh task is dispatchable and no retry
  is due, an idle worker duplicates the longest-running in-flight task
  (at most one duplicate per task, after ``steal_after`` seconds).
  Whichever copy finishes first wins; the loser's result is discarded
  by sequence number.  Duplicating a pure, seed-determined simulation
  is always safe, so stragglers cannot serialise the tail of a batch.
* **Retry with capped exponential backoff.**  A task attempt ends in
  success, a worker-side exception, a dead worker (crash / SIGKILL /
  broken pipe), or a per-task timeout.  Failed attempts are retried up
  to ``max_retries`` times, waiting ``min(retry_max_delay,
  retry_base_delay * 2**(attempt-1))`` between attempts; dead workers
  are respawned as fresh processes.  A task that exhausts its retries
  fails the batch with :class:`CellError` naming every failed cell —
  never a silent hole in a result grid.

The loop runs in the consumer's own thread: :meth:`Scheduler.start`
returns a generator, and each ``next()`` fills idle workers, blocks in
:func:`multiprocessing.connection.wait` on every worker's pipe and
process death sentinel for at most one tick, handles completions,
crashes, deadlines and due retries, refills idle workers and yields
the next result in submission order.  There is no dispatch thread, so
workers are never forked from a second thread.  One stream may be open
per scheduler at a time; opening another raises :class:`RuntimeError`
naming the open one.

Determinism: scheduling (stealing, retries, worker death) never
reorders *delivery* — results are matched to submission slots by index
— so aggregates are bit-identical to a serial run regardless of worker
count, timing, or how many attempts a cell needed.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import pickle
import time
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Deque, Dict, FrozenSet, Iterator, List, Optional, Tuple

__all__ = ["CellError", "CellFailure", "Scheduler"]

#: Upper bound on one selector wait; also the granularity of timeout,
#: retry-due and straggler checks.  Small enough that a due retry is
#: dispatched promptly, large enough that waiting costs nothing
#: measurable.
_TICK_SECONDS = 0.05

#: How much of a failing item's repr() survives into error messages.
_ITEM_REPR_LIMIT = 200

_WORKER_NAMES = itertools.count(1)


def describe_exception(exc: BaseException) -> str:
    """A compact worker-side failure description (type, message, tail frames)."""
    rendered = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__, limit=8))
    return rendered[-2000:]


def worker_loop(conn: Connection) -> None:
    """Worker-process loop: receive ``(seq, token, fn_bytes, item)``, reply.

    Replies are ``(seq, True, result)`` or ``(seq, False, error_text)``.
    The callable is pickled once per batch by the dispatching side and
    cached here by its batch token, so per-task messages stay small.
    Any exception — including a result that fails to pickle on the way
    back — is reported as a failed attempt rather than killing the
    worker.
    """
    fn_token: Optional[int] = None
    fn: Optional[Callable[[Any], Any]] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        seq, token, fn_bytes, item = message
        try:
            if fn is None or fn_token != token:
                fn = pickle.loads(fn_bytes)
                fn_token = token
            assert fn is not None
            result = fn(item)
        except BaseException as exc:  # noqa: B036 - attempt failure, reported to the parent
            with suppress(OSError, ValueError):
                conn.send((seq, False, describe_exception(exc)))
            continue
        try:
            conn.send((seq, True, result))
        except (OSError, BrokenPipeError):
            return
        except Exception as exc:  # unpicklable result
            with suppress(OSError, ValueError):
                conn.send((seq, False, f"result could not be pickled: {exc!r}"))


class _Worker:
    """A live worker process plus the parent end of its duplex pipe.

    ``current`` is the in-flight assignment ``(index, seq, started)`` or
    ``None`` when idle; the globally unique ``seq`` is what lets the
    dispatcher discard stale results (from a stolen task's losing copy,
    or from a batch that was aborted mid-flight).
    """

    def __init__(self, ctx: Any) -> None:
        self.current: Optional[Tuple[int, int, float]] = None
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        name = f"repro-worker-{next(_WORKER_NAMES)}"
        self.process = ctx.Process(target=worker_loop, args=(child_conn,), daemon=True, name=name)
        self.process.start()
        child_conn.close()
        self.conn: Connection = parent_conn

    def kill(self) -> None:
        # Killing a process that already exited raises on some
        # platforms; the caller only cares that it is no longer running.
        # repro: allow[EXC001] best-effort kill; double-terminate test pins safety
        with suppress(Exception):
            self.process.kill()

    def terminate(self) -> None:
        # Best-effort teardown of a worker that is already failed or
        # finished: kill/join/close may each raise on a dead process or
        # closed pipe, and an error here must never mask the batch's
        # real failure.  Idempotence is pinned by a test
        # (test_scheduler.py::test_local_terminate_is_idempotent).
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.process.kill()
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.process.join(timeout=2.0)
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.conn.close()


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its retries: where, how often, and why."""

    index: int
    item: str
    attempts: int
    error: str


class CellError(RuntimeError):
    """A batch failed: one or more cells exhausted their retries.

    Raised by :meth:`ProcessBackend.map`/``imap`` instead of returning a
    grid with holes.  ``failures`` lists every cell known to have
    failed permanently when the batch was aborted, each with its item
    repr, attempt count and last error (a worker-side traceback, a
    crash notice, or a timeout description).
    """

    def __init__(self, failures: List[CellFailure]) -> None:
        self.failures = failures
        lines = [
            f"  cell {f.index} ({f.item}) failed after {f.attempts} attempt(s): {f.error.strip()}"
            for f in failures
        ]
        super().__init__(
            f"{len(failures)} cell(s) exhausted their retries:\n" + "\n".join(lines)
        )


class Scheduler:
    """Dispatch batches over persistent worker processes (see module docs).

    One scheduler serves many sequential batches; workers are spawned
    lazily on the first batch and reused until :meth:`close`.
    Batches run one at a time — the backend's ordered-delivery contract
    has no use for interleaved batches, so a second stream opened while
    one is still open raises instead of waiting on it.
    ``stats`` accumulates scheduling events (``retries``, ``steals``,
    ``respawns``, ``timeouts``, ``failures``) across the scheduler's
    lifetime, which is what the fault-injection tests assert against.
    """

    def __init__(
        self,
        workers: int,
        window: int,
        max_retries: int,
        retry_base_delay: float,
        retry_max_delay: float,
        task_timeout: Optional[float],
        steal_after: float,
    ) -> None:
        self.workers = int(workers)
        self.window = max(int(window), self.workers)
        self.max_retries = int(max_retries)
        self.retry_base_delay = float(retry_base_delay)
        self.retry_max_delay = float(retry_max_delay)
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.steal_after = float(steal_after)
        self.stats: Dict[str, int] = {
            "retries": 0,
            "steals": 0,
            "respawns": 0,
            "timeouts": 0,
            "failures": 0,
        }
        start_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in start_methods else "spawn")
        self._workers: List[_Worker] = []
        #: Description of the stream currently being consumed, if any.
        self._open_stream: Optional[str] = None
        self._seq = 0

    # -- lifecycle --------------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return bool(self._workers)

    def worker_pids(self) -> FrozenSet[int]:
        """PIDs of the live worker processes."""
        return frozenset(w.process.pid for w in self._workers)

    def close(self) -> None:
        workers, self._workers = self._workers, []
        self._open_stream = None
        for worker in workers:
            worker.terminate()

    def _replace(self, worker: _Worker) -> None:
        """Replace ``worker`` with a fresh worker process."""
        self._workers.remove(worker)
        replacement = _Worker(self._ctx)
        worker.terminate()
        self._workers.append(replacement)
        self.stats["respawns"] += 1

    # -- the dispatcher ---------------------------------------------------------------

    def start(self, fn: Callable[[Any], Any], items: List[Any]) -> Iterator[Any]:
        """Run ``fn`` over ``items`` on the workers, yielding results in order.

        The returned generator *is* the dispatch loop: nothing runs
        until the first ``next()``, and each ``next()`` drives the
        workers until the next result in submission order is ready.
        Closing (or abandoning) the generator ends the batch; workers
        still busy with its tasks are replaced at the next batch.
        """
        stream = f"imap({getattr(fn, '__qualname__', repr(fn))}, <{len(items)} items>)"
        if self._open_stream is not None:
            raise RuntimeError(
                f"{self._open_stream} is still open on this backend; exhaust or "
                f"close() it before starting {stream}"
            )
        self._open_stream = stream
        try:
            while len(self._workers) < self.workers:
                self._workers.append(_Worker(self._ctx))
            # A previous batch that ended early (fail-fast, or an imap
            # consumer that abandoned the stream) can leave workers still
            # chewing on its tasks; their eventual replies must not be
            # mistaken for this batch's.  Replace them with fresh workers —
            # their assignment state (and any straggling reply in flight)
            # dies with the process.
            for worker in [w for w in self._workers if w.current is not None]:
                self._replace(worker)
            yield from self._dispatch(fn, items, stream)
        finally:
            if self._open_stream is stream:
                self._open_stream = None

    def _dispatch(self, fn: Callable[[Any], Any], items: List[Any], stream: str) -> Iterator[Any]:
        self._seq += 1
        token = self._seq
        fn_bytes = pickle.dumps(fn)
        total = len(items)

        results: Dict[int, Any] = {}
        resolved: Dict[int, bool] = {}
        attempts: Dict[int, int] = {}
        live: Dict[int, int] = {}
        failures: Dict[int, CellFailure] = {}
        ready: Deque[int] = deque()
        retry_heap: List[Tuple[float, int]] = []
        next_fresh = 0
        consumed = 0

        def fail_attempt(index: int, error: str) -> None:
            """One assignment of ``index`` ended badly; retry or give up."""
            if index in resolved:
                return
            attempts[index] = attempts.get(index, 0) + 1
            if live.get(index, 0) > 0:
                return  # a stolen duplicate is still running this cell
            if attempts[index] > self.max_retries:
                resolved[index] = True
                failures[index] = CellFailure(
                    index=index,
                    item=repr(items[index])[:_ITEM_REPR_LIMIT],
                    attempts=attempts[index],
                    error=error,
                )
                self.stats["failures"] += 1
            else:
                delay = min(
                    self.retry_max_delay,
                    self.retry_base_delay * (2 ** (attempts[index] - 1)),
                )
                heapq.heappush(retry_heap, (time.monotonic() + delay, index))
                self.stats["retries"] += 1

        def end_assignment(worker: _Worker) -> Optional[int]:
            current, worker.current = worker.current, None
            if current is None:
                return None
            index = current[0]
            live[index] = max(live.get(index, 1) - 1, 0)
            return index

        def worker_died(worker: _Worker, error: str) -> None:
            if worker not in self._workers:
                return  # already handled via another path
            index = end_assignment(worker)
            self._replace(worker)
            if index is not None:
                fail_attempt(index, error)

        def drain(worker: _Worker) -> None:
            try:
                while worker.conn.poll():
                    seq, ok, payload = worker.conn.recv()
                    current = worker.current
                    if current is None or current[1] != seq:
                        continue  # stale: an aborted batch or a steal's losing copy
                    index = end_assignment(worker)
                    assert index is not None
                    if index in resolved:
                        continue
                    if ok:
                        resolved[index] = True
                        results[index] = payload
                    else:
                        fail_attempt(index, payload)
            except (EOFError, OSError):
                worker_died(worker, "worker connection lost mid-result")

        def dispatch_to_idle() -> None:
            nonlocal next_fresh
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                ready.append(heapq.heappop(retry_heap)[1])
            while True:
                worker = next((w for w in self._workers if w.current is None), None)
                if worker is None:
                    return
                index: Optional[int] = None
                stolen = False
                while ready:
                    candidate = ready.popleft()
                    if candidate not in resolved:
                        index = candidate
                        break
                if index is None and next_fresh < total and next_fresh < consumed + self.window:
                    index = next_fresh
                    next_fresh += 1
                if index is None:
                    # Nothing fresh or due: duplicate the oldest straggler.
                    candidates = [
                        w
                        for w in self._workers
                        if w.current is not None
                        and live.get(w.current[0], 0) == 1
                        and w.current[0] not in resolved
                        and now - w.current[2] >= self.steal_after
                    ]
                    if not candidates:
                        return
                    victim = min(candidates, key=lambda w: w.current[2] if w.current else now)
                    assert victim.current is not None
                    index = victim.current[0]
                    stolen = True
                self._seq += 1
                seq = self._seq
                worker.current = (index, seq, now)
                live[index] = live.get(index, 0) + 1
                try:
                    worker.conn.send((seq, token, fn_bytes, items[index]))
                except (OSError, ValueError) as exc:
                    worker_died(worker, f"worker unreachable at dispatch: {exc}")
                    continue
                if stolen:
                    self.stats["steals"] += 1

        def step(timeout: float) -> None:
            """Fill idle workers, wait up to ``timeout``, handle what happened."""
            dispatch_to_idle()
            wait_objects: List[Any] = []
            for w in self._workers:
                wait_objects.extend((w.conn, w.process.sentinel))
            connection_wait(wait_objects, timeout)
            now = time.monotonic()
            for worker in list(self._workers):
                drain(worker)
            for worker in list(self._workers):
                if not worker.process.is_alive():
                    drain(worker)  # salvage any result buffered before death
                    worker_died(worker, "worker process died mid-cell")
            if self.task_timeout is not None:
                for worker in list(self._workers):
                    current = worker.current
                    if current is None or now - current[2] <= self.task_timeout:
                        continue
                    if worker.conn.poll():
                        continue  # result raced in; picked up next step
                    self.stats["timeouts"] += 1
                    worker.kill()
                    worker_died(
                        worker,
                        f"cell exceeded task_timeout={self.task_timeout:g}s and was killed",
                    )
            if not failures:
                dispatch_to_idle()

        while consumed < total:
            if self._open_stream is not stream:
                raise RuntimeError(f"{stream} was cut off: the scheduler was closed mid-stream")
            if not failures:
                # Results already waiting still get one non-blocking step,
                # so workers that finished meanwhile are refilled.
                step(0.0 if consumed in results else _TICK_SECONDS)
            if consumed in results:
                result = results.pop(consumed)
                consumed += 1
                yield result
            elif failures:
                raise CellError([failures[i] for i in sorted(failures)])
