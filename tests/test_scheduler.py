"""Fault injection for the ProcessBackend scheduler.

Every failure mode the scheduler claims to survive is injected here for
real: a worker SIGKILLed mid-cell, a cell that raises, a cell that
hangs past the per-cell timeout, and a straggler that must be
work-stolen.  Each must end in either a retried successful cell or a
clear :class:`CellError` — never a silent hole in the batch.

The injection helpers are module-level (workers are separate
processes, so they must be picklable) and coordinate through marker
files: "fail the first time this marker has not been seen, succeed
after" turns a deterministic test into a retry exercise.  Timing
assertions are deliberately loose — CI may run on a single core.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments.backends import ProcessBackend
from repro.experiments.parallel import ParallelRunner, ScenarioSpec
from repro.experiments.scheduler import CellError, _Worker

SMALL_LINEAR = {"num_nodes": 3, "transfer_bytes": 8_000, "num_flows": 1, "duration": 150}


def _square(value):
    return value * value


def _mark_first(marker):
    """Atomically claim the first-execution marker; True for one winner.

    The original cell and a stolen duplicate can race through the
    fault helpers concurrently, so a check-then-touch marker would let
    both copies think they are "first" (and e.g. both sleep 30s).
    O_CREAT|O_EXCL underneath guarantees exactly one winner.
    """
    try:
        Path(marker).touch(exist_ok=False)
    except FileExistsError:
        return False
    return True


def _kill_once(arg):
    """SIGKILL the worker the first time, succeed on the retry."""
    marker, value = arg
    if _mark_first(marker):  # pragma: no cover - the kill erases coverage data
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _hang_once(arg):
    """Hang far past the timeout the first time, succeed on the retry."""
    marker, value = arg
    if _mark_first(marker):  # pragma: no cover - the kill erases coverage data
        time.sleep(300)
    return value + 100


def _hang_forever(value):  # pragma: no cover - killed by the timeout
    time.sleep(300)
    return value


def _boom(value):
    raise RuntimeError(f"cell {value} exploded")


def _boom_if_odd(value):
    if value % 2:
        raise RuntimeError(f"cell {value} exploded")
    return value * 10


def _maybe_slow(arg):
    """Sleep a long time on first execution of the flagged item only."""
    marker, value, slow = arg
    if slow and _mark_first(marker):
        time.sleep(30)
    return value * 3


def _touch_and_square(arg):
    """Record that the item started, then square it."""
    directory, value = arg
    (Path(directory) / f"started-{value}").touch()
    return value * value


def _always_kill(_value):  # pragma: no cover - runs (and dies) in a worker
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerCrash:
    def test_sigkilled_worker_is_respawned_and_cell_retried(self, tmp_path):
        marker = tmp_path / "killed"
        items = [(str(marker), v) for v in range(5)]
        with ProcessBackend(workers=2, retry_base_delay=0.01) as backend:
            assert backend.map(_kill_once, items) == [v * 2 for v in range(5)]
            assert backend.stats["retries"] >= 1
            assert backend.stats["respawns"] >= 1
            # The pool healed: a follow-up batch runs on live workers.
            assert backend.map(_square, [3]) == [9]

    def test_crash_loop_fails_loudly_not_silently(self):
        # A cell that kills its worker on every attempt must exhaust
        # the retry budget and surface as an aggregated error, not hang
        # or drop the cell.  steal_after is large because this pins the
        # exact attempt count: a stolen duplicate would add attempts.
        with ProcessBackend(
            workers=2, max_retries=1, retry_base_delay=0.01, steal_after=5.0
        ) as backend:
            with pytest.raises(CellError) as excinfo:
                backend.map(_always_kill, [0, 1])
            assert excinfo.value.failures
            failure = excinfo.value.failures[0]
            assert failure.attempts == 2  # initial try + 1 retry
            assert "worker" in failure.error.lower()


class TestRaisingCell:
    def test_exception_aggregated_with_traceback(self):
        # steal_after is large for the same reason as the crash-loop
        # test: this pins the exact attempt count.
        with ProcessBackend(
            workers=2, max_retries=1, retry_base_delay=0.01, steal_after=5.0
        ) as backend:
            with pytest.raises(CellError) as excinfo:
                backend.map(_boom, [7])
        failure = excinfo.value.failures[0]
        assert failure.index == 0
        assert failure.attempts == 2
        assert "cell 7 exploded" in failure.error
        assert "RuntimeError" in failure.error

    def test_batch_fails_fast_but_backend_stays_usable(self):
        with ProcessBackend(workers=2, max_retries=0, retry_base_delay=0.01) as backend:
            with pytest.raises(CellError):
                backend.map(_boom_if_odd, range(6))
            # Exhausted cells abort the batch; the pool survives it.
            assert backend.map(_square, [4]) == [16]
            assert backend.stats["failures"] >= 1

    def test_imap_surfaces_the_error_mid_stream(self):
        with ProcessBackend(workers=1, max_retries=0) as backend:
            iterator = backend.imap(_boom_if_odd, [0, 1, 2])
            assert next(iterator) == 0
            with pytest.raises(CellError):
                list(iterator)


class TestHungCell:
    def test_timeout_kills_retries_and_succeeds(self, tmp_path):
        marker = tmp_path / "hung"
        with ProcessBackend(workers=2, task_timeout=1.0, retry_base_delay=0.01) as backend:
            start = time.monotonic()
            result = backend.map(_hang_once, [(str(marker), v) for v in range(3)])
            elapsed = time.monotonic() - start
        assert result == [100, 101, 102]
        assert elapsed < 60, f"retry after timeout took {elapsed:.1f}s"

    def test_timeout_exhaustion_is_a_clear_error(self):
        with ProcessBackend(
            workers=1, task_timeout=0.5, max_retries=0, retry_base_delay=0.01
        ) as backend:
            with pytest.raises(CellError) as excinfo:
                backend.map(_hang_forever, [1])
        assert "task_timeout" in excinfo.value.failures[0].error
        assert backend.stats["timeouts"] >= 1


class TestWorkStealing:
    def test_idle_worker_steals_the_straggler(self, tmp_path):
        # Worker A draws the slow item (30s on first run); worker B
        # finishes its fast items and must steal the straggler rather
        # than idle.  The batch completing in seconds — not 30 — is the
        # observable proof, the steals counter the explicit one.
        marker = tmp_path / "slow"
        items = [(str(marker), 0, True)] + [(str(marker), v, False) for v in (1, 2, 3)]
        with ProcessBackend(workers=2, steal_after=0.1, retry_base_delay=0.01) as backend:
            start = time.monotonic()
            result = backend.map(_maybe_slow, items)
            elapsed = time.monotonic() - start
        assert result == [0, 3, 6, 9]
        assert backend.stats["steals"] >= 1
        assert elapsed < 25, f"steal did not rescue the straggler ({elapsed:.1f}s)"


class TestBackpressure:
    def test_window_bounds_inflight_dispatch(self, tmp_path):
        # window=1 on one worker: the scheduler may run at most one
        # task ahead of the consumer, so after consuming k results at
        # most k+1 items can ever have started.
        items = [(str(tmp_path), v) for v in range(6)]
        with ProcessBackend(workers=1, window=1) as backend:
            iterator = backend.imap(_touch_and_square, items)
            for consumed, expected in enumerate([0, 1, 4], start=1):
                assert next(iterator) == expected
                started = len(list(tmp_path.glob("started-*")))
                assert started <= consumed + 1, (
                    f"{started} items started after {consumed} consumed with window=1"
                )
            assert list(iterator) == [9, 16, 25]


class TestBitIdentityAcrossWorkerCounts:
    def test_run_grid_matches_serial(self):
        specs = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
        seeds = [1, 2, 3]
        serial = ParallelRunner(workers=0).run_grid(specs, seeds)
        for workers in (1, 2, 4):
            with ProcessBackend(workers=workers) as backend:
                assert ParallelRunner(backend=backend).run_grid(specs, seeds) == serial, (
                    f"process workers={workers} diverged from serial"
                )


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class _KeepPipes:
    """A multiprocessing context that keeps a reference to every pipe end.

    CPython's refcounting would close a child end the parent merely
    drops; holding it here (as a tracing collector or a lingering
    traceback frame would) leaves only an explicit ``close()`` to
    release it.
    """

    def __init__(self, ctx):
        self._ctx = ctx
        self.pipes = []

    def Pipe(self, duplex=True):  # noqa: N802 - mirrors the context API
        pair = self._ctx.Pipe(duplex=duplex)
        self.pipes.append(pair)
        return pair

    def __getattr__(self, name):
        return getattr(self._ctx, name)


class TestWorkerProcess:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_respawns_leak_no_pipe_ends(self):
        # The parent must close its copy of the child's pipe end once
        # the worker is forked, or every respawn leaks an fd.
        methods = multiprocessing.get_all_start_methods()
        ctx = _KeepPipes(multiprocessing.get_context("fork" if "fork" in methods else "spawn"))
        before = _open_fds()
        for _ in range(4):
            worker = _Worker(ctx)
            worker.terminate()
            # Reaping the process object releases its exit sentinel.
            worker.process.close()
        assert len(ctx.pipes) == 4
        assert _open_fds() == before

    def test_local_terminate_is_idempotent(self):
        # _Worker.terminate carries # repro: allow[EXC001] pragmas
        # claiming its suppress(Exception) blocks are pure best-effort
        # teardown.  That claim holds only if terminate is safe on an
        # already-dead worker with a closed pipe — i.e. calling it twice
        # never raises.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        worker = _Worker(ctx)
        worker.terminate()
        worker.terminate()  # dead process, closed pipe: must still not raise
        assert not worker.process.is_alive()
