"""Shared fixtures: localhost worker agents for cross-transport contract tests.

The async fault-injection suite runs every case against both transports
the scheduler supports — local pipe workers and TCP worker agents — via
the ``async_transport`` fixture.  Agents are launched as real
subprocesses through the ``python -m repro.experiments.remote`` CLI (the
same entry point an operator uses), with ``PYTHONPATH`` covering both
``src`` and ``tests`` so test callables pickled by reference resolve on
the agent side.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Transports every ProcessBackend contract test must hold for.
ASYNC_TRANSPORTS = ("local", "tcp")


def _agent_env() -> dict:
    env = dict(os.environ)
    extra = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT / 'tests'}"
    current = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{extra}{os.pathsep}{current}" if current else extra
    return env


def launch_worker_agents(count: int) -> Tuple[List[subprocess.Popen], str]:
    """Start ``count`` localhost agents; return (processes, endpoint string).

    Each agent binds port 0 and prints its listening line; parsing that
    line (rather than probing the port) avoids stealing the agent's
    single client slot with a throwaway connection.
    """
    procs: List[subprocess.Popen] = []
    addresses: List[str] = []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.remote", "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                cwd=REPO_ROOT,
                env=_agent_env(),
            )
            procs.append(proc)
        for proc in procs:
            assert proc.stdout is not None
            # Skip interpreter noise (e.g. the runpy double-import
            # warning) until the banner:
            # "repro worker agent listening on tcp://127.0.0.1:PORT (protocol vN)"
            seen: List[str] = []
            for line in proc.stdout:
                seen.append(line)
                if "listening on tcp://" in line:
                    addresses.append(line.split("tcp://", 1)[1].split()[0])
                    break
            else:
                raise AssertionError(f"agent failed to start: {seen!r}")
    except BaseException:
        stop_worker_agents(procs)
        raise
    return procs, "tcp://" + ",".join(addresses)


def stop_worker_agents(procs: List[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()


class AsyncTransportHarness:
    """Builds ProcessBackend instances over one transport, tracking agents."""

    def __init__(self, transport: str) -> None:
        self.transport = transport
        self._procs: List[subprocess.Popen] = []

    @property
    def is_remote(self) -> bool:
        return self.transport == "tcp"

    def backend(self, workers: int = 2, **kwargs):
        from repro.experiments.backends import ProcessBackend

        if not self.is_remote:
            return ProcessBackend(workers=workers, **kwargs)
        procs, endpoint = launch_worker_agents(workers)
        self._procs.extend(procs)
        return ProcessBackend(endpoint=endpoint, **kwargs)

    def close(self) -> None:
        stop_worker_agents(self._procs)
        self._procs.clear()


@pytest.fixture(params=ASYNC_TRANSPORTS)
def async_transport(request):
    """The cross-transport contract seam: yields a backend factory per transport."""
    harness = AsyncTransportHarness(request.param)
    try:
        yield harness
    finally:
        harness.close()


@pytest.fixture
def tcp_agents():
    """Launch N worker agents; yields a factory returning the endpoint string."""
    launched: List[subprocess.Popen] = []

    def start(count: int = 1) -> str:
        procs, endpoint = launch_worker_agents(count)
        launched.extend(procs)
        return endpoint

    try:
        yield start
    finally:
        stop_worker_agents(launched)
