"""Fault injection for the ProcessBackend scheduler.

Every failure mode the scheduler claims to survive is injected here for
real: a worker SIGKILLed mid-cell, a cell that raises, and a cell that
hangs past the per-cell timeout.  Each must end in either a retried
successful cell or a clear :class:`CellError` — never a silent hole in
the batch.  A slow cell, by contrast, is no failure: it must leave the
pool exactly as it found it.

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
    """Claim the first-execution marker; True for the first caller only.

    ``touch(exist_ok=False)`` creates the file with O_CREAT|O_EXCL, so
    the claim is atomic: the helpers stay correct even if two workers
    reach the same marker at once.
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


def _touch_and_square(arg):
    """Record that the item started, sleep as asked, then square it."""
    directory, value, delay = arg
    (Path(directory) / f"started-{value}").touch()
    time.sleep(delay)
    return value * value


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _always_kill(_value):  # pragma: no cover - runs (and dies) in a worker
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerCrash:
    def test_sigkilled_worker_is_respawned_and_cell_retried(self, tmp_path):
        marker = tmp_path / "killed"
        items = [(str(marker), v) for v in range(5)]
        with ProcessBackend(workers=2) as backend:
            assert backend.map(_kill_once, items) == [v * 2 for v in range(5)]
            assert backend.stats["retries"] >= 1
            assert backend.stats["respawns"] >= 1
            # The pool healed: a follow-up batch runs on live workers.
            assert backend.map(_square, [3]) == [9]

    def test_crash_loop_fails_loudly_not_silently(self):
        # A cell that kills its worker on every attempt must exhaust
        # the retry budget and surface as an aggregated error, not hang
        # or drop the cell.
        with ProcessBackend(workers=2, max_retries=1) as backend:
            with pytest.raises(CellError) as excinfo:
                backend.map(_always_kill, [0, 1])
            assert excinfo.value.failures
            failure = excinfo.value.failures[0]
            assert failure.attempts == 2  # initial try + 1 retry
            assert "worker" in failure.error.lower()


class TestRaisingCell:
    def test_exception_aggregated_with_traceback(self):
        with ProcessBackend(workers=2, max_retries=1) as backend:
            with pytest.raises(CellError) as excinfo:
                backend.map(_boom, [7])
        failure = excinfo.value.failures[0]
        assert failure.index == 0
        assert failure.attempts == 2
        assert "cell 7 exploded" in failure.error
        assert "RuntimeError" in failure.error

    def test_batch_fails_fast_but_backend_stays_usable(self):
        with ProcessBackend(workers=2, max_retries=0) as backend:
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
        with ProcessBackend(workers=2, task_timeout=1.0) as backend:
            start = time.monotonic()
            result = backend.map(_hang_once, [(str(marker), v) for v in range(3)])
            elapsed = time.monotonic() - start
        assert result == [100, 101, 102]
        assert elapsed < 60, f"retry after timeout took {elapsed:.1f}s"

    def test_timeout_exhaustion_is_a_clear_error(self):
        with ProcessBackend(workers=1, task_timeout=0.5, max_retries=0) as backend:
            with pytest.raises(CellError) as excinfo:
                backend.map(_hang_forever, [1])
        assert "task_timeout" in excinfo.value.failures[0].error
        assert backend.stats["timeouts"] >= 1


class TestBackpressure:
    def test_window_bounds_inflight_dispatch(self, tmp_path):
        # The window is 2 * workers unconsumed results.  One worker can
        # never run ahead of the consumer by more than the cell it holds,
        # so two are needed to show the bound: while item 0 holds the
        # stream for a second, the other worker finishes fast items and
        # must stop at the window instead of draining the whole batch.
        items = [(str(tmp_path), v, 1.0 if v == 0 else 0.0) for v in range(12)]
        with ProcessBackend(workers=2) as backend:
            iterator = backend.imap(_touch_and_square, items)
            for consumed in (1, 2, 3):
                assert next(iterator) == (consumed - 1) ** 2
                started = len(list(tmp_path.glob("started-*")))
                assert started <= consumed + 4, (
                    f"{started} items started after {consumed} consumed with a window of 4"
                )
            assert list(iterator) == [v * v for v in range(3, 12)]


class TestBackToBackBatches:
    def test_slow_last_cell_leaves_the_pool_intact(self):
        # A slow cell at the end of a batch is finished by the worker
        # that holds it; the next batch must find every worker idle and
        # reuse it, not kill and respawn one.
        with ProcessBackend(workers=2) as backend:
            assert backend.map(_sleep, [0.05] * 6 + [1.0]) == [0.05] * 6 + [1.0]
            pids = backend.worker_pids()
            assert backend.map(_square, range(4)) == [0, 1, 4, 9]
            assert backend.worker_pids() == pids
            assert backend.stats["respawns"] == 0


class TestBitIdentityAcrossWorkerCounts:
    def test_run_grid_matches_serial(self):
        specs = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
        seeds = [1, 2, 3]
        serial = ParallelRunner(workers=0).run_grids([(specs, seeds)])[0]
        for workers in (1, 2, 4):
            with ProcessBackend(workers=workers) as backend:
                assert ParallelRunner(backend=backend).run_grids([(specs, seeds)])[0] == serial, (
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
