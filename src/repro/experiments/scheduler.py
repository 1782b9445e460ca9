"""The dispatch loop behind :class:`~repro.experiments.backends.ProcessBackend`.

This module is the scheduler half of the process backend: a pool of
persistent local worker processes (one duplex pipe each) driven by one
blocking dispatch loop that shards a batch of tasks across them.  The
backend-facing contract (ordered ``map``/``imap`` delivery, lazy start,
idempotent close) lives in :mod:`repro.experiments.backends`; this
module owns the worker processes and the scheduling policy:

* **Bounded in-flight window (backpressure).**  Task ``i`` is only
  dispatched once fewer than ``2 * workers`` results are unconsumed,
  i.e. ``i < consumed + 2 * workers`` where ``consumed`` counts results
  the caller has actually pulled from the stream.  A slow ``imap``
  consumer therefore throttles dispatch instead of accumulating an
  unbounded reorder buffer, and the reorder buffer (results completed
  out of submission order) can never exceed the window either.
* **Retry with capped exponential backoff.**  A task attempt ends in
  success, a worker-side exception, a dead worker (crash / SIGKILL /
  broken pipe), or a per-task timeout.  Failed attempts are retried up
  to ``max_retries`` times, waiting ``min(2.0, 0.05 * 2**(attempt-1))``
  seconds between attempts; dead workers are respawned as fresh
  processes.  A task that exhausts its retries fails the batch with
  :class:`CellError` naming every failed cell — never a silent hole in
  a result grid.
* **No duplicate work.**  Each task runs on one worker at a time: the
  workers are identical local processes and every task is
  seed-determined, so a second copy of a slow task would finish no
  sooner.

The loop runs in the consumer's own thread: :meth:`Scheduler.start`
returns a generator, and each ``next()`` fills idle workers, blocks in
:func:`multiprocessing.connection.wait` on every worker's pipe and
process death sentinel for at most one tick, handles completions,
crashes, deadlines and due retries, refills idle workers and yields
the next result in submission order.  There is no dispatch thread, so
workers are never forked from a second thread.  One stream may be open
per scheduler at a time; opening another raises :class:`RuntimeError`
naming the open one.

Determinism: scheduling (retries, worker death) never
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
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

__all__ = ["CellError", "CellFailure", "Scheduler"]

#: Upper bound on one selector wait; also the granularity of timeout
#: and retry-due checks.  Small enough that a due retry is dispatched
#: promptly, large enough that waiting costs nothing measurable.
_TICK_SECONDS = 0.05

#: Unconsumed results allowed per worker before dispatch pauses.
_WINDOW_PER_WORKER = 2

#: Backoff before a failed cell's first retry; doubles per attempt.
_RETRY_BASE_DELAY = 0.05

#: Cap on the retry backoff.
_RETRY_MAX_DELAY = 2.0

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
    dispatcher discard stale results from a batch that was aborted
    mid-flight.
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
    ``stats`` accumulates scheduling events (``retries``, ``respawns``,
    ``timeouts``, ``failures``) across the scheduler's lifetime, which
    is what the fault-injection tests assert against.
    """

    def __init__(self, workers: int, max_retries: int, task_timeout: Optional[float]) -> None:
        self.workers = int(workers)
        self.window = _WINDOW_PER_WORKER * self.workers
        self.max_retries = int(max_retries)
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.stats: Dict[str, int] = {
            "retries": 0,
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
        attempts: Dict[int, int] = {}
        failures: Dict[int, CellFailure] = {}
        retry_heap: List[Tuple[float, int]] = []
        next_fresh = 0
        consumed = 0

        def fail_attempt(index: int, error: str) -> None:
            """An attempt at ``index`` ended badly; retry or give up."""
            attempts[index] = attempts.get(index, 0) + 1
            if attempts[index] > self.max_retries:
                failures[index] = CellFailure(
                    index=index,
                    item=repr(items[index])[:_ITEM_REPR_LIMIT],
                    attempts=attempts[index],
                    error=error,
                )
                self.stats["failures"] += 1
            else:
                delay = min(_RETRY_MAX_DELAY, _RETRY_BASE_DELAY * (2 ** (attempts[index] - 1)))
                heapq.heappush(retry_heap, (time.monotonic() + delay, index))
                self.stats["retries"] += 1

        def end_assignment(worker: _Worker) -> Optional[int]:
            current, worker.current = worker.current, None
            return None if current is None else current[0]

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
                        continue  # stale: a reply from an aborted batch
                    index = end_assignment(worker)
                    assert index is not None
                    if ok:
                        results[index] = payload
                    else:
                        fail_attempt(index, payload)
            except (EOFError, OSError):
                worker_died(worker, "worker connection lost mid-result")

        def dispatch_to_idle() -> None:
            nonlocal next_fresh
            now = time.monotonic()
            while True:
                worker = next((w for w in self._workers if w.current is None), None)
                if worker is None:
                    return
                if retry_heap and retry_heap[0][0] <= now:
                    index = heapq.heappop(retry_heap)[1]
                elif next_fresh < total and next_fresh < consumed + self.window:
                    index = next_fresh
                    next_fresh += 1
                else:
                    return
                self._seq += 1
                seq = self._seq
                worker.current = (index, seq, now)
                try:
                    worker.conn.send((seq, token, fn_bytes, items[index]))
                except (OSError, ValueError) as exc:
                    worker_died(worker, f"worker unreachable at dispatch: {exc}")

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
