"""Executor backends: lifecycle, pool reuse, env plumbing, bit-identity."""

import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import (
    BACKENDS,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    async_endpoint_from_env,
    async_retries_from_env,
    async_timeout_from_env,
    async_workers_from_env,
    close_shared_backends,
    make_backend,
    resolve_backend,
    shared_backend,
    workers_from_env,
)
from repro.experiments.parallel import ParallelRunner, ScenarioSpec

REPO_ROOT = Path(__file__).resolve().parents[1]

SMALL_LINEAR = {"num_nodes": 3, "transfer_bytes": 8_000, "num_flows": 1, "duration": 150}
TINY_FIGURE = {"net_sizes": (3,), "tolerances": (0.0,), "seeds": (1, 2), "transfer_bytes": 4_000, "duration": 80}


def _pid(_index):
    return os.getpid()


def _square(value):
    return value * value


def _flaky_eval(arg):
    """Deterministic fault injection: fail the first ``fails`` attempts.

    Attempt counts persist in per-item files so retries (fresh worker
    processes) observe earlier attempts.  With ``fails=0`` this is a
    pure function of ``value`` — the serial reference.
    """
    directory, index, value, fails = arg
    counter = Path(directory) / f"attempts-{index}"
    seen = int(counter.read_text()) if counter.exists() else 0
    if seen < fails:
        counter.write_text(str(seen + 1))
        raise RuntimeError(f"injected failure {seen + 1}/{fails} for item {index}")
    return (value * value, value + 7)


class TestSerialBackend:
    def test_runs_inline_in_order(self):
        backend = SerialBackend()
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert backend.map(_pid, [0]) == [os.getpid()]
        assert backend.workers == 1
        assert not backend.is_running  # never holds resources

    def test_context_manager_is_a_no_op(self):
        with SerialBackend() as backend:
            assert backend.map(_square, [2]) == [4]

    def test_imap_streams_lazily(self):
        # The serial backend must not run task k+1 before the caller
        # consumes result k — that is what makes per-cell progress
        # reporting exact, not after-the-fact.
        ran = []

        def record(value):
            ran.append(value)
            return value * value

        iterator = SerialBackend().imap(record, [1, 2, 3])
        assert ran == []
        assert next(iterator) == 1
        assert ran == [1]
        assert list(iterator) == [4, 9]
        assert ran == [1, 2, 3]


class TestImapOrdering:
    def test_pooled_backends_stream_in_item_order(self):
        with ProcessBackend(workers=2) as process:
            for backend in (SerialBackend(), process):
                assert list(backend.imap(_square, range(6))) == [v * v for v in range(6)]
                assert list(backend.imap(_square, [])) == []

    def test_imap_matches_map(self):
        with ProcessBackend(workers=2) as backend:
            assert list(backend.imap(_square, range(5))) == backend.map(_square, range(5))

    def test_process_imap_recovers_from_a_pool_broken_between_batches(self):
        import signal

        with ProcessBackend(workers=2) as backend:
            assert backend.map(_square, [1]) == [1]
            # A worker dies while the pool sits idle (the OOM-kill
            # scenario).  The next batch notices the death, respawns
            # the worker and delivers the full, ordered batch.
            os.kill(next(iter(backend.worker_pids())), signal.SIGKILL)
            assert list(backend.imap(_square, range(4))) == [0, 1, 4, 9]
            # The backend stays healthy for later batched calls too.
            assert backend.map(_square, [5]) == [25]

    def test_second_open_stream_raises_naming_the_open_one(self):
        # One stream at a time: opening another while the first is
        # still open must fail fast rather than wait on it forever.
        with ProcessBackend(workers=2) as backend:
            first = backend.imap(abs, range(-20, 0))
            assert next(first) == 20
            with pytest.raises(RuntimeError, match=r"imap\(abs, <20 items>\) is still open"):
                list(backend.imap(abs, range(-3, 0)))
            # Finishing the first stream frees the backend again.
            assert list(first) == list(range(19, 0, -1))
            assert list(backend.imap(abs, range(-3, 0))) == [3, 2, 1]

    def test_closing_the_stream_or_the_backend_ends_the_stream(self):
        with ProcessBackend(workers=2) as backend:
            first = backend.imap(_square, range(10))
            assert next(first) == 0
            first.close()
            assert backend.map(_square, range(4)) == [0, 1, 4, 9]
            second = backend.imap(_square, range(10))
            assert next(second) == 0
            backend.close()
            with pytest.raises(RuntimeError, match="closed mid-stream"):
                next(second)
            assert backend.map(_square, [3]) == [9]  # restarts lazily


class TestProcessBackendLifecycle:
    def test_pool_starts_lazily_and_is_reused(self):
        with ProcessBackend(workers=2) as backend:
            assert not backend.is_running
            first = set(backend.map(_pid, range(8)))
            assert backend.is_running
            pids = backend.worker_pids()
            second = set(backend.map(_pid, range(8)))
            # Same pool, same worker processes, across both calls.
            assert backend.worker_pids() == pids
            assert first <= pids
            assert second <= pids
            assert os.getpid() not in pids

    def test_pool_reused_across_two_figure_calls(self):
        from repro.experiments import figures

        with ProcessBackend(workers=2) as backend:
            figures.figure3(backend=backend, **TINY_FIGURE)
            pids = backend.worker_pids()
            assert pids, "the first figure call must have started the pool"
            figures.figure4(
                backend=backend,
                net_sizes=(3,),
                seeds=(1, 2),
                transfer_bytes=4_000,
                duration=80,
            )
            assert backend.worker_pids() == pids, "second figure call must reuse the pool"

    def test_context_manager_shuts_the_pool_down(self):
        backend = ProcessBackend(workers=2)
        with backend:
            backend.map(_square, [1, 2])
            assert backend.is_running
        assert not backend.is_running
        assert backend.worker_pids() == frozenset()

    def test_close_is_idempotent_and_reuse_restarts_lazily(self):
        backend = ProcessBackend(workers=2)
        backend.map(_square, [1, 2])
        backend.close()
        backend.close()
        assert not backend.is_running
        assert backend.map(_square, [3, 4]) == [9, 16]
        assert backend.is_running
        backend.close()

    def test_atexit_cleanup_lets_the_interpreter_exit(self):
        # A child interpreter that uses a shared pool but never closes it
        # must still exit promptly: the workers are daemon processes.
        code = (
            "from repro.experiments.backends import shared_backend\n"
            "from tests.test_backends import _square\n"
            "backend = shared_backend(2)\n"
            "assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]\n"
            "assert backend.is_running\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [sys.executable, "-c", code],
            cwd=REPO_ROOT,
            env=env,
            timeout=60,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_unpicklable_builder_is_rejected_naming_scenario_spec(self):
        builder = lambda seed: ScenarioSpec("linear", SMALL_LINEAR)(seed)
        with pytest.raises(TypeError, match="ScenarioSpec"):
            ParallelRunner(workers=2).replicate(builder, [1, 2])

    def test_close_shared_backends_reaps_every_worker(self):
        # Reaped workers are what lets a caller account the pool's CPU
        # time (resource.RUSAGE_CHILDREN) once the run is over.
        close_shared_backends()
        before = multiprocessing.active_children()
        backend = resolve_backend(workers=2)
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        pids = backend.worker_pids()
        assert len(pids) == 2
        close_shared_backends()
        assert multiprocessing.active_children() == before
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped: no zombie left


class TestAsyncBackend:
    """The scheduler-backed ProcessBackend."""

    def test_is_a_backend_and_carries_configuration(self):
        backend = ProcessBackend(endpoint="tcp://scheduler:9999")
        assert isinstance(backend, ExecutorBackend)
        assert backend.endpoint == "tcp://scheduler:9999"
        assert backend.workers == 1  # one connection per endpoint address
        assert backend.name == "process"
        backend.close()

    def test_map_and_imap_agree(self):
        with ProcessBackend(workers=2) as backend:
            assert backend.map(_square, range(5)) == [v * v for v in range(5)]
            assert list(backend.imap(_square, range(5))) == backend.map(_square, range(5))

    def test_runs_in_worker_processes(self):
        with ProcessBackend(workers=2) as backend:
            pids = set(backend.map(_pid, range(8)))
            assert os.getpid() not in pids
            assert pids <= backend.worker_pids()

    def test_lifecycle_matches_process_backend(self):
        backend = ProcessBackend(workers=2)
        assert not backend.is_running
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert backend.is_running
        pids = backend.worker_pids()
        assert backend.map(_square, [4]) == [16]
        assert backend.worker_pids() == pids, "second call must reuse the worker pool"
        backend.close()
        backend.close()
        assert not backend.is_running
        assert backend.worker_pids() == frozenset()
        assert backend.map(_square, [5]) == [25], "closed backend must restart lazily"
        backend.close()

    def test_unpicklable_payload_rejected_up_front(self):
        with ProcessBackend(workers=2) as backend:
            with pytest.raises(TypeError, match="picklable"):
                backend.map(lambda value: value, [1])
        assert not backend.is_running

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)
        with pytest.raises(ValueError):
            ProcessBackend(workers=2, window=0)
        with pytest.raises(ValueError):
            ProcessBackend(workers=2, max_retries=-1)


class TestCrossBackendBitIdentity:
    def test_serial_and_process_agree_on_a_small_grid(self):
        specs = [ScenarioSpec("linear", dict(SMALL_LINEAR, num_nodes=size)) for size in (3, 4)]
        seeds = [1, 2, 3]
        serial = ParallelRunner(backend=SerialBackend()).run_grid(specs, seeds)
        with ProcessBackend(workers=2) as backend:
            process = ParallelRunner(backend=backend).run_grid(specs, seeds)
        assert process == serial

    def test_run_paper_matches_serial_at_every_worker_count(self):
        # A linear metric figure plus a table: small enough to rerun per
        # worker count, wide enough to cross scenario families.
        from repro.experiments.presets import run_paper

        figures = ["figure4b", "table2"]
        reference = run_paper(figures=figures, seeds="smoke", workers=0)
        for workers in (1, 2, 4):
            with ProcessBackend(workers=workers) as backend:
                rows = run_paper(figures=figures, seeds="smoke", backend=backend)
            assert rows == reference, f"process workers={workers} diverged from serial"


class TestTasksSubmitted:
    def test_counts_caller_visible_items_per_backend(self):
        backends = [
            SerialBackend(),
            ProcessBackend(workers=2),
        ]
        for backend in backends:
            with backend:
                assert backend.tasks_submitted == 0
                backend.map(_square, range(5))
                assert backend.tasks_submitted == 5
                list(backend.imap(_square, range(3)))
                assert backend.tasks_submitted == 8, backend.name


class TestResolveBackend:
    def test_zero_and_one_mean_serial(self):
        assert isinstance(resolve_backend(workers=0), SerialBackend)
        assert isinstance(resolve_backend(workers=1), SerialBackend)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(workers=-2)

    def test_explicit_backend_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend=backend) is backend

    def test_workers_and_backend_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            resolve_backend(workers=2, backend=SerialBackend())

    def test_default_is_the_shared_pool(self):
        if (os.cpu_count() or 1) > 1:
            assert resolve_backend() is shared_backend(None)
        else:
            # One-core machines keep the historical serial execution.
            assert isinstance(resolve_backend(), SerialBackend)

    def test_shared_backend_is_cached_per_worker_count(self):
        a = shared_backend(2)
        b = shared_backend(2)
        c = shared_backend(3)
        assert a is b
        assert a is not c
        assert resolve_backend(workers=2) is a

    def test_parallel_workers_resolve_to_a_process_backend(self):
        assert isinstance(resolve_backend(workers=2), ProcessBackend)

    def test_env_seams_do_not_reach_the_shared_pool(self, monkeypatch):
        # REPRO_ASYNC_* configure make_backend("process"), never the
        # pool that workers=N resolves to.
        close_shared_backends()
        monkeypatch.setenv("REPRO_ASYNC_ENDPOINT", "tcp://127.0.0.1:9")
        monkeypatch.setenv("REPRO_ASYNC_WORKERS", "3")
        backend = resolve_backend(workers=2)
        try:
            assert backend.workers == 2
            assert backend.endpoint is None
            assert backend.map(_pid, range(4)) and len(backend.worker_pids()) == 2
        finally:
            close_shared_backends()

    def test_close_shared_backends_forgets_the_cache(self):
        before = shared_backend(2)
        close_shared_backends()
        assert not before.is_running
        assert shared_backend(2) is not before
        close_shared_backends()


class TestMakeBackend:
    def test_registry_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessBackend)
        assert set(BACKENDS) == {"serial", "process"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_backend("distributed")
        with pytest.raises(ValueError):
            make_backend("async")

    def test_serial_with_parallel_workers_rejected(self):
        with pytest.raises(ValueError):
            make_backend("serial", workers=8)
        assert isinstance(make_backend("serial", workers=1), SerialBackend)
        assert isinstance(make_backend("serial", workers=0), SerialBackend)


class TestWorkersFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env() is None
        assert workers_from_env(default=3) == 3

    def test_zero_means_serial_everywhere(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert workers_from_env() == 0
        assert isinstance(resolve_backend(workers=workers_from_env()), SerialBackend)

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert workers_from_env() == 4

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        with pytest.raises(ValueError):
            workers_from_env()


class TestAsyncEnvSeams:
    def test_async_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASYNC_WORKERS", raising=False)
        assert async_workers_from_env() is None
        assert async_workers_from_env(default=3) == 3
        monkeypatch.setenv("REPRO_ASYNC_WORKERS", "4")
        assert async_workers_from_env() == 4
        assert make_backend("process").workers == 4
        monkeypatch.setenv("REPRO_ASYNC_WORKERS", "0")
        with pytest.raises(ValueError):
            async_workers_from_env()

    def test_async_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASYNC_RETRIES", raising=False)
        assert async_retries_from_env() == 2
        monkeypatch.setenv("REPRO_ASYNC_RETRIES", "0")
        assert async_retries_from_env() == 0
        monkeypatch.setenv("REPRO_ASYNC_RETRIES", "-1")
        with pytest.raises(ValueError):
            async_retries_from_env()

    def test_async_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASYNC_TIMEOUT", raising=False)
        assert async_timeout_from_env() is None
        monkeypatch.setenv("REPRO_ASYNC_TIMEOUT", "2.5")
        assert async_timeout_from_env() == 2.5
        # Zero or negative disables the per-cell timeout entirely.
        monkeypatch.setenv("REPRO_ASYNC_TIMEOUT", "0")
        assert async_timeout_from_env() is None

    def test_async_endpoint(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASYNC_ENDPOINT", raising=False)
        assert async_endpoint_from_env() is None
        assert async_endpoint_from_env(default="tcp://x:1") == "tcp://x:1"
        monkeypatch.setenv("REPRO_ASYNC_ENDPOINT", "tcp://127.0.0.1:9")
        assert async_endpoint_from_env() == "tcp://127.0.0.1:9"
        backend = make_backend("process")
        assert backend.endpoint == "tcp://127.0.0.1:9"
        assert backend.workers == 1
        backend.close()
        # A malformed env endpoint fails at construction, not first use.
        monkeypatch.setenv("REPRO_ASYNC_ENDPOINT", "not-an-endpoint")
        with pytest.raises(ValueError):
            make_backend("process")


class TestAsyncEndpointValidation:
    @pytest.mark.parametrize(
        "endpoint",
        [
            "",
            "   ",
            "scheduler:9999",  # no scheme
            "udp://host:1",  # wrong scheme
            "tcp://",  # no address
            "tcp://host",  # no port
            "tcp://host:0",  # port out of range
            "tcp://host:99999",  # port out of range
            "tcp://host:http",  # non-numeric port
            "tcp://h:1,,h:2",  # empty address in the list
        ],
    )
    def test_malformed_endpoints_rejected_up_front(self, endpoint):
        with pytest.raises(ValueError):
            ProcessBackend(endpoint=endpoint)

    def test_workers_default_to_one_per_address(self):
        backend = ProcessBackend(endpoint="tcp://a:1,b:2,c:3")
        assert backend.workers == 3
        backend.close()

    def test_worker_count_must_match_address_count(self):
        with pytest.raises(ValueError, match="does not match"):
            ProcessBackend(endpoint="tcp://a:1,b:2", workers=3)


@st.composite
def _fault_grids(draw):
    values = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    fails = draw(
        st.lists(st.integers(0, 2), min_size=len(values), max_size=len(values))
    )
    workers = draw(st.integers(1, 3))
    return values, fails, workers


class TestAsyncPropertyBitIdentity:
    @given(grid=_fault_grids())
    @settings(max_examples=8, deadline=None)
    def test_imap_order_and_aggregates_match_serial_under_faults(self, grid):
        # For random grids, worker counts and injected fault schedules,
        # imap delivery order and the aggregate payload must be
        # byte-identical to the serial backend: retries and steals
        # re-run deterministic cells, never reorder delivery.
        values, fails, workers = grid
        pure_items = [(".", i, v, 0) for i, v in enumerate(values)]
        serial = SerialBackend().map(_flaky_eval, pure_items)
        with tempfile.TemporaryDirectory() as tmp:
            items = [(tmp, i, v, f) for i, (v, f) in enumerate(zip(values, fails))]
            with ProcessBackend(workers=workers, max_retries=3, retry_base_delay=0.01) as backend:
                streamed = list(backend.imap(_flaky_eval, items))
        assert streamed == serial
        assert pickle.dumps(streamed) == pickle.dumps(serial)
