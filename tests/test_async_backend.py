"""Fault injection for the ProcessBackend scheduler — the cross-transport contract.

Every failure mode the scheduler claims to survive is injected here for
real: a worker SIGKILLed mid-cell, a cell that raises, a cell that
hangs past the per-cell timeout, and a straggler that must be
work-stolen.  Each must end in either a retried successful cell or a
clear :class:`AsyncCellError` — never a silent hole in the batch.

Every case runs against **both transports** via the ``async_transport``
fixture (see ``conftest.py``): local pipe workers and TCP worker agents
launched as real subprocesses.  This is the contract remote workers
must satisfy — the dispatch loop's retry/steal/timeout semantics are
transport-agnostic, and only the accounting of *where* a crashed
process is respawned differs (the scheduler respawns local workers; a
TCP agent respawns its own execution child, so scheduler-side
``respawns`` stay local-transport-only for crashes and count reconnects
for remote drops).  Remote-only failure modes — a peer that never says
hello, a protocol version mismatch, garbage frames, a connection
dropped mid-task — are driven by scripted TCP peers.

The injection helpers are module-level (workers are separate
processes, so they must be picklable) and coordinate through marker
files: "fail the first time this marker has not been seen, succeed
after" turns a deterministic test into a retry exercise.  Timing
assertions are deliberately loose — CI may run on a single core.
"""

import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.parallel import ParallelRunner, ScenarioSpec
from repro.experiments.remote import (
    PROTOCOL_VERSION,
    LocalProcessTransport,
    TcpTransport,
    _recv_frame,
    _send_frame,
)
from repro.experiments.scheduler import AsyncCellError

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
    def test_sigkilled_worker_is_respawned_and_cell_retried(self, tmp_path, async_transport):
        marker = tmp_path / "killed"
        items = [(str(marker), v) for v in range(5)]
        with async_transport.backend(workers=2, retry_base_delay=0.01) as backend:
            assert backend.map(_kill_once, items) == [v * 2 for v in range(5)]
            if async_transport.is_remote:
                # The agent respawns its own crashed execution child and
                # reports a failed attempt; the connection to the agent
                # itself never died.  While the child respawns, the
                # other worker may steal the cell before its retry is
                # due — either recovery path satisfies the contract.
                assert backend.stats["respawns"] == 0
                assert backend.stats["retries"] + backend.stats["steals"] >= 1
            else:
                assert backend.stats["retries"] >= 1
                assert backend.stats["respawns"] >= 1
            # The pool healed: a follow-up batch runs on live workers.
            assert backend.map(_square, [3]) == [9]

    def test_crash_loop_fails_loudly_not_silently(self, async_transport):
        # A cell that kills its worker on every attempt must exhaust
        # the retry budget and surface as an aggregated error, not hang
        # or drop the cell.  steal_after is large because this pins the
        # exact attempt count: a stolen duplicate would add attempts
        # (remote first-task latency covers child spawn, so the default
        # 0.25s steal age can fire before the first attempt ends).
        with async_transport.backend(
            workers=2, max_retries=1, retry_base_delay=0.01, steal_after=5.0
        ) as backend:
            with pytest.raises(AsyncCellError) as excinfo:
                backend.map(_always_kill, [0, 1])
            assert excinfo.value.failures
            failure = excinfo.value.failures[0]
            assert failure.attempts == 2  # initial try + 1 retry
            assert "worker" in failure.error.lower()


class TestRaisingCell:
    def test_exception_aggregated_with_traceback(self, async_transport):
        # steal_after is large for the same reason as the crash-loop
        # test: this pins the exact attempt count.
        with async_transport.backend(
            workers=2, max_retries=1, retry_base_delay=0.01, steal_after=5.0
        ) as backend:
            with pytest.raises(AsyncCellError) as excinfo:
                backend.map(_boom, [7])
        failure = excinfo.value.failures[0]
        assert failure.index == 0
        assert failure.attempts == 2
        assert "cell 7 exploded" in failure.error
        assert "RuntimeError" in failure.error

    def test_batch_fails_fast_but_backend_stays_usable(self, async_transport):
        with async_transport.backend(workers=2, max_retries=0, retry_base_delay=0.01) as backend:
            with pytest.raises(AsyncCellError):
                backend.map(_boom_if_odd, range(6))
            # Exhausted cells abort the batch; the pool survives it.
            assert backend.map(_square, [4]) == [16]
            assert backend.stats["failures"] >= 1

    def test_imap_surfaces_the_error_mid_stream(self, async_transport):
        with async_transport.backend(workers=1, max_retries=0) as backend:
            iterator = backend.imap(_boom_if_odd, [0, 1, 2])
            assert next(iterator) == 0
            with pytest.raises(AsyncCellError):
                list(iterator)


class TestHungCell:
    def test_timeout_kills_retries_and_succeeds(self, tmp_path, async_transport):
        marker = tmp_path / "hung"
        with async_transport.backend(workers=2, task_timeout=1.0, retry_base_delay=0.01) as backend:
            start = time.monotonic()
            result = backend.map(_hang_once, [(str(marker), v) for v in range(3)])
            elapsed = time.monotonic() - start
        assert result == [100, 101, 102]
        assert elapsed < 60, f"retry after timeout took {elapsed:.1f}s"

    def test_timeout_exhaustion_is_a_clear_error(self, async_transport):
        with async_transport.backend(
            workers=1, task_timeout=0.5, max_retries=0, retry_base_delay=0.01
        ) as backend:
            with pytest.raises(AsyncCellError) as excinfo:
                backend.map(_hang_forever, [1])
        assert "task_timeout" in excinfo.value.failures[0].error
        assert backend.stats["timeouts"] >= 1


class TestWorkStealing:
    def test_idle_worker_steals_the_straggler(self, tmp_path, async_transport):
        # Worker A draws the slow item (30s on first run); worker B
        # finishes its fast items and must steal the straggler rather
        # than idle.  The batch completing in seconds — not 30 — is the
        # observable proof, the steals counter the explicit one.
        marker = tmp_path / "slow"
        items = [(str(marker), 0, True)] + [(str(marker), v, False) for v in (1, 2, 3)]
        with async_transport.backend(workers=2, steal_after=0.1, retry_base_delay=0.01) as backend:
            start = time.monotonic()
            result = backend.map(_maybe_slow, items)
            elapsed = time.monotonic() - start
        assert result == [0, 3, 6, 9]
        assert backend.stats["steals"] >= 1
        assert elapsed < 25, f"steal did not rescue the straggler ({elapsed:.1f}s)"


class TestBackpressure:
    def test_window_bounds_inflight_dispatch(self, tmp_path, async_transport):
        # window=1 on one worker: the scheduler may run at most one
        # task ahead of the consumer, so after consuming k results at
        # most k+1 items can ever have started.
        items = [(str(tmp_path), v) for v in range(6)]
        with async_transport.backend(workers=1, window=1) as backend:
            iterator = backend.imap(_touch_and_square, items)
            for consumed, expected in enumerate([0, 1, 4], start=1):
                assert next(iterator) == expected
                started = len(list(tmp_path.glob("started-*")))
                assert started <= consumed + 1, (
                    f"{started} items started after {consumed} consumed with window=1"
                )
            assert list(iterator) == [9, 16, 25]


class TestBitIdentityAcrossWorkerCounts:
    def test_run_grid_matches_serial_for_every_transport(self, async_transport):
        specs = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
        seeds = [1, 2, 3]
        serial = ParallelRunner(workers=0).run_grid(specs, seeds)
        # TCP needs one subprocess agent per worker; two counts keep the
        # remote leg affordable while still crossing the 1-vs-many line.
        worker_counts = (1, 2) if async_transport.is_remote else (1, 2, 4)
        for workers in worker_counts:
            with async_transport.backend(workers=workers) as backend:
                assert ParallelRunner(backend=backend).run_grid(specs, seeds) == serial, (
                    f"process workers={workers} diverged from serial"
                )


# -- remote-only failure modes ------------------------------------------------------------


class ScriptedPeer:
    """A TCP listener standing in for a worker agent, with scripted behaviour.

    ``behaviour(conn)`` runs once per accepted connection on its own
    thread; raising or returning closes the connection.  Used to inject
    the failure modes a well-behaved agent never produces.
    """

    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen()
        self.listener.settimeout(0.2)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        # One thread per connection: the scheduler's retry reconnects
        # while the previous scripted exchange may still be open.
        while not self._stop.is_set():
            try:
                conn, _addr = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn):
        try:
            self.behaviour(conn)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        try:
            self.listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)

    @property
    def endpoint(self):
        return f"tcp://127.0.0.1:{self.port}"


def _hold_until_client_closes(conn):
    while conn.recv(4096):
        pass


def _silent(conn):
    """Accept, never say hello; the client gives up at connect_timeout."""
    _hold_until_client_closes(conn)


def _wrong_version(conn):
    _send_frame(conn, ("hello", PROTOCOL_VERSION + 1, None))
    _hold_until_client_closes(conn)


def _garbage_after_task(conn):
    _send_frame(conn, ("hello", PROTOCOL_VERSION, None))
    _recv_frame(conn)  # the task
    conn.sendall(b"\x00\x00\x00\x04junk")
    _hold_until_client_closes(conn)


def _drop_after_task(conn):
    _send_frame(conn, ("hello", PROTOCOL_VERSION, None))
    _recv_frame(conn)  # the task
    # return → close: the connection drops with the cell in flight


class TestRemoteOnlyFaults:
    def _backend(self, endpoint, **kwargs):
        from repro.experiments.backends import ProcessBackend

        kwargs.setdefault("max_retries", 1)
        kwargs.setdefault("retry_base_delay", 0.01)
        kwargs.setdefault("connect_timeout", 0.5)
        return ProcessBackend(endpoint=endpoint, **kwargs)

    def test_worker_that_never_says_hello_fails_the_handshake(self):
        with ScriptedPeer(_silent) as peer:
            with self._backend(peer.endpoint) as backend:
                with pytest.raises(AsyncCellError) as excinfo:
                    backend.map(_square, [1])
        assert "handshake" in excinfo.value.failures[0].error

    def test_protocol_version_mismatch_is_loud(self):
        with ScriptedPeer(_wrong_version) as peer:
            with self._backend(peer.endpoint) as backend:
                with pytest.raises(AsyncCellError) as excinfo:
                    backend.map(_square, [1])
        assert "version mismatch" in excinfo.value.failures[0].error

    def test_garbage_frame_is_treated_as_worker_death(self):
        with ScriptedPeer(_garbage_after_task) as peer:
            with self._backend(peer.endpoint) as backend:
                with pytest.raises(AsyncCellError) as excinfo:
                    backend.map(_square, [1])
        failure = excinfo.value.failures[0]
        assert failure.attempts == 2  # the drop is retried before giving up
        assert "worker" in failure.error.lower()

    def test_connection_drop_mid_task_is_retried_then_fails(self):
        with ScriptedPeer(_drop_after_task) as peer:
            with self._backend(peer.endpoint) as backend:
                with pytest.raises(AsyncCellError) as excinfo:
                    backend.map(_square, [1])
                assert backend.stats["respawns"] >= 1  # each retry reconnects
        failure = excinfo.value.failures[0]
        assert failure.attempts == 2
        assert "worker" in failure.error.lower()

    def test_drop_then_recovery_via_a_real_agent(self, tcp_agents):
        # A scripted drop is terminal because the peer never improves;
        # a real agent accepts the reconnect and the retried cell
        # succeeds — the respawn-as-reconnect contract end to end.
        endpoint = tcp_agents(1)
        with self._backend(endpoint, task_timeout=1.5, max_retries=2) as backend:
            # First attempt hangs and is killed via the connection; the
            # retry against the same agent completes.
            marker = Path(os.environ.get("TMPDIR", "/tmp")) / f"drop-recover-{os.getpid()}"
            if marker.exists():
                marker.unlink()
            try:
                assert backend.map(_hang_once, [(str(marker), 1)]) == [101]
            finally:
                if marker.exists():
                    marker.unlink()
            assert backend.stats["timeouts"] >= 1
            assert backend.stats["respawns"] >= 1


class TestTransportObjects:
    def test_local_terminate_is_idempotent(self):
        # LocalProcessTransport.terminate carries # repro: allow[EXC001]
        # pragmas claiming its suppress(Exception) blocks are pure
        # best-effort teardown.  That claim holds only if terminate is
        # safe on an already-dead worker with a closed pipe — i.e.
        # calling it twice never raises.
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        worker = LocalProcessTransport(ctx, name="terminate-twice")
        worker.terminate()
        worker.terminate()  # dead process, closed pipe: must still not raise
        assert not worker.process.is_alive()

    def test_tcp_terminate_is_idempotent_without_ever_connecting(self):
        transport = TcpTransport("127.0.0.1", 1)  # nothing listens here
        transport.terminate()
        transport.terminate()
        assert not transport.is_alive()

    def test_dead_tcp_transport_never_reconnects(self):
        transport = TcpTransport("127.0.0.1", 1)
        transport.kill()
        with pytest.raises(OSError, match="marked dead"):
            transport.send((0, 0, b"", None))
        replacement = transport.respawn()
        assert (replacement.host, replacement.port) == ("127.0.0.1", 1)
        assert replacement.is_alive()
