"""The remote TCP worker transport behind :class:`~repro.experiments.backends.ProcessBackend`.

This module takes the async scheduler beyond one machine.  It owns three
things:

* **The wire protocol.**  Length-prefixed pickle frames over TCP: every
  frame is a 4-byte big-endian payload length followed by the pickle of
  a ``(kind, ...)`` tuple.  Frame kinds: ``("hello", version, pid)``
  (agent -> client, immediately after connect; the protocol-version
  check lives here), ``("task", seq, token, fn_bytes, item)`` (client ->
  agent), ``("result", seq, ok, payload)`` (agent -> client),
  ``("heartbeat",)`` (agent -> client while a cell runs, so a silent
  connection is distinguishable from a dead one), and ``("bye",)``
  (client -> agent, graceful goodbye).  A frame that does not decode, or
  whose advertised length is absurd, is a :class:`ProtocolError` — both
  sides treat the connection as dead rather than guessing.

* **The transport abstraction.**  :class:`WorkerTransport` is one worker
  slot as :class:`~repro.experiments.scheduler.AsyncScheduler` sees it:
  send a task, poll/recv replies, wait handles for the multiplexer,
  liveness, kill, respawn.  :class:`LocalProcessTransport` is the
  historical local child process + duplex pipe;
  :class:`TcpTransport` is the client side of the TCP protocol
  (lazy connect + hello handshake; ``kill`` closes the connection, which
  is the remote kill switch — the agent aborts the in-flight cell on
  disconnect).  The scheduler drives both through the same dispatch
  loop, which is what makes the fault-injection suite
  (``tests/test_async_backend.py``) a cross-transport contract.

* **The worker agent.**  :class:`WorkerAgent` (CLI:
  ``python -m repro.experiments.remote --listen host:port``) serves one
  scheduler connection at a time and executes cells in a child process
  it can kill — a crashed cell (SIGKILL, OOM) is reported as a failed
  attempt and the child is respawned; a client disconnect mid-cell
  aborts the cell so the agent is immediately reusable.  The agent
  stays up across client connections, so scheduler-side reconnects
  (retry after a drop, timeout kill) just work.

**Security note:** the protocol is pickle over a plain TCP socket —
deserialising a frame can execute arbitrary code, and there is no
authentication or encryption.  Run agents only on trusted networks
(a lab cluster, an SSH-tunnelled link), exactly like
``multiprocessing.connection`` listeners.  ``docs/distributed.md``
documents the protocol, the reconnect/retry semantics and this caveat.

This module is deliberately dependency-free within the repo (stdlib
only; the layer DAG pins ``experiments.remote`` beneath
``experiments``), so a worker machine needs nothing but the package on
its path — payload unpickling imports whatever the cells reference.
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import pickle
import select
import socket
import struct
import threading
import time
import traceback
from abc import ABC, abstractmethod
from contextlib import suppress
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerTransport",
    "LocalProcessTransport",
    "TcpTransport",
    "WorkerAgent",
    "parse_endpoint",
    "main",
]

#: Version stamped into every hello frame.  A client refuses to talk to
#: an agent speaking a different version — failing the handshake loudly
#: beats misinterpreting frames.
PROTOCOL_VERSION = 1

#: 4-byte big-endian frame-length prefix.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload.  Anything larger is a peer that
#: is not speaking this protocol (e.g. the length prefix was read out
#: of garbage bytes), not a legitimate task or result.
MAX_FRAME_BYTES = 1 << 30

#: Per-recv socket timeout once a connection is established.  Reads are
#: poll-gated, so this only bounds how long a *partially delivered*
#: frame may stall a reader before the connection is declared dead.
_FRAME_TIMEOUT = 30.0

#: Granularity of the agent's accept loop and serve loop: how often it
#: re-checks its stop flag and the heartbeat clock.
_SERVE_TICK = 0.2

#: A task in flight to a worker: ``(seq, token, fn_bytes, item)``.
TaskMessage = Tuple[int, int, bytes, Any]

#: A worker's reply: ``(seq, ok, payload)``.
ReplyMessage = Tuple[int, bool, Any]


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid protocol frame."""


# -- endpoint parsing ---------------------------------------------------------------------


def _parse_hostport(text: str, endpoint: str) -> Tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address {text!r} in endpoint {endpoint!r} is not of the form host:port"
        )
    host = host.strip("[]")  # tolerate bracketed IPv6 literals
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"address {text!r} in endpoint {endpoint!r} has a non-numeric port {port_text!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(
            f"address {text!r} in endpoint {endpoint!r} has port {port} outside 1-65535"
        )
    return host, port


def parse_endpoint(endpoint: str) -> List[Tuple[str, int]]:
    """Parse ``tcp://host:port[,host:port...]`` into ``(host, port)`` pairs.

    The scheme is required once at the front (repeating it per address
    is tolerated: ``tcp://a:1,tcp://b:2``).  Each address names one
    :class:`WorkerAgent`; the scheduler opens one connection per entry,
    so listing the same agent twice does not add capacity.  Every
    malformed shape — missing or unsupported scheme, empty address,
    missing/non-numeric/out-of-range port — raises :class:`ValueError`
    with the offending fragment named.
    """
    text = endpoint.strip()
    if not text:
        raise ValueError("endpoint must not be empty; expected tcp://host:port[,host:port...]")
    scheme, sep, rest = text.partition("://")
    if not sep:
        raise ValueError(
            f"endpoint {endpoint!r} has no scheme; expected tcp://host:port[,host:port...]"
        )
    if scheme != "tcp":
        raise ValueError(
            f"unsupported endpoint scheme {scheme!r} in {endpoint!r}; only 'tcp' is supported"
        )
    addresses: List[Tuple[str, int]] = []
    for part in rest.split(","):
        part = part.strip()
        if part.startswith("tcp://"):
            part = part[len("tcp://") :]
        elif "://" in part:
            raise ValueError(
                f"unsupported scheme on address {part!r} in {endpoint!r}; only 'tcp' is supported"
            )
        if not part:
            raise ValueError(f"endpoint {endpoint!r} contains an empty address")
        addresses.append(_parse_hostport(part, endpoint))
    return addresses


# -- frame I/O ----------------------------------------------------------------------------


def _send_frame(sock: socket.socket, frame: Tuple[Any, ...]) -> None:
    """Pickle ``frame`` and write it with its length prefix."""
    body = pickle.dumps(frame)
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Tuple[Any, ...]:
    """Read one frame; :class:`ProtocolError` if the bytes are not one."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES}; "
            "the peer is not speaking the repro worker protocol"
        )
    body = _recv_exact(sock, length)
    try:
        frame = pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc!r}") from None
    if not isinstance(frame, tuple) or not frame or not isinstance(frame[0], str):
        raise ProtocolError(f"malformed frame: {frame!r}")
    return frame


# -- the worker-side execution loop -------------------------------------------------------


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
    worker.  This is the execution loop for both the local pipe
    transport and the TCP agent's child process.
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


# -- the transport abstraction ------------------------------------------------------------


class WorkerTransport(ABC):
    """One worker slot as the scheduler's dispatch loop sees it.

    ``current`` is the in-flight assignment ``(index, seq, started)`` or
    ``None`` when idle; the globally unique ``seq`` is what lets the
    dispatcher discard stale results (from a stolen task's losing copy,
    or from a batch that was aborted mid-flight).  Implementations own
    the mechanics — a child process and pipe, or a TCP connection to a
    remote agent — behind the same seven verbs, so the scheduler's
    policy (window, stealing, retry, respawn) is transport-agnostic.
    """

    def __init__(self) -> None:
        self.current: Optional[Tuple[int, int, float]] = None

    @abstractmethod
    def send(self, task: TaskMessage) -> None:
        """Dispatch one task; raises ``OSError`` if the worker is unreachable."""

    @abstractmethod
    def poll(self) -> bool:
        """Whether :meth:`recv` would return without blocking."""

    @abstractmethod
    def recv(self) -> Optional[ReplyMessage]:
        """One reply, or ``None`` for a control frame (heartbeat) to skip.

        Raises ``EOFError``/``OSError`` when the worker is gone; callers
        treat either as the death of this transport.
        """

    @abstractmethod
    def wait_handles(self) -> List[Any]:
        """Objects for ``multiprocessing.connection.wait`` that wake the loop."""

    @abstractmethod
    def is_alive(self) -> bool:
        """Whether the worker may still produce results."""

    @abstractmethod
    def kill(self) -> None:
        """Hard-stop the in-flight cell (kill the process / drop the link)."""

    @abstractmethod
    def terminate(self) -> None:
        """Best-effort full teardown; must be safe to call twice."""

    @abstractmethod
    def respawn(self) -> "WorkerTransport":
        """A fresh replacement transport for the same worker slot."""

    @property
    @abstractmethod
    def pid(self) -> Optional[int]:
        """PID of the process executing cells, when known."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable identity for error messages."""


_LOCAL_WORKER_NAMES = itertools.count(1)


class LocalProcessTransport(WorkerTransport):
    """A live local worker process plus the parent end of its duplex pipe."""

    def __init__(self, ctx: Any, name: Optional[str] = None) -> None:
        super().__init__()
        if name is None:
            name = f"repro-async-worker-{next(_LOCAL_WORKER_NAMES)}"
        self._ctx = ctx
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=worker_loop, args=(child_conn,), daemon=True, name=name)
        self.process.start()
        child_conn.close()
        self.conn: Connection = parent_conn

    def send(self, task: TaskMessage) -> None:
        self.conn.send(task)

    def poll(self) -> bool:
        return bool(self.conn.poll())

    def recv(self) -> Optional[ReplyMessage]:
        seq, ok, payload = self.conn.recv()
        return int(seq), bool(ok), payload

    def wait_handles(self) -> List[Any]:
        return [self.conn, self.process.sentinel]

    def is_alive(self) -> bool:
        return bool(self.process.is_alive())

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
        # (test_async_backend.py::test_terminate_is_idempotent).
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.process.kill()
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.process.join(timeout=2.0)
        # repro: allow[EXC001] best-effort teardown; double-terminate test pins safety
        with suppress(Exception):
            self.conn.close()

    def respawn(self) -> "LocalProcessTransport":
        return LocalProcessTransport(self._ctx)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def describe(self) -> str:
        return f"local worker {self.process.name}"


class TcpTransport(WorkerTransport):
    """Client side of the TCP worker protocol: one connection to one agent.

    The connection is opened lazily on the first :meth:`send` (so merely
    constructing a backend never touches the network) and begins with
    the hello handshake: the agent speaks first, the client checks the
    protocol version, and any other opening — silence past
    ``connect_timeout``, a different version, garbage — fails the
    connection loudly.  Once marked dead a transport never reconnects;
    the scheduler replaces it via :meth:`respawn`, which is how retry
    backoff paces reconnection attempts.  :meth:`kill` closes the
    socket, which doubles as the remote kill switch: the agent aborts
    the in-flight cell when its client vanishes.
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0) -> None:
        super().__init__()
        self.host = host
        self.port = int(port)
        self.connect_timeout = float(connect_timeout)
        self._sock: Optional[socket.socket] = None
        self._dead = False
        self._pid: Optional[int] = None

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection((self.host, self.port), timeout=self.connect_timeout)
        except OSError as exc:
            self._dead = True
            raise OSError(f"could not connect to {self.describe()}: {exc}") from exc
        try:
            hello = _recv_frame(sock)
            if hello[0] != "hello" or len(hello) != 3:
                raise ProtocolError(f"expected a hello frame, got {hello!r}")
            _, version, pid = hello
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: agent speaks v{version}, "
                    f"this client speaks v{PROTOCOL_VERSION}"
                )
            self._pid = None if pid is None else int(pid)
        except (EOFError, OSError, ProtocolError) as exc:
            with suppress(OSError):
                sock.close()
            self._dead = True
            raise OSError(f"handshake with {self.describe()} failed: {exc}") from exc
        sock.settimeout(_FRAME_TIMEOUT)
        self._sock = sock
        return sock

    def send(self, task: TaskMessage) -> None:
        if self._dead:
            raise OSError(f"{self.describe()} is marked dead; awaiting respawn")
        sock = self._sock if self._sock is not None else self._connect()
        try:
            _send_frame(sock, ("task", *task))
        except OSError:
            self._dead = True
            raise

    def poll(self) -> bool:
        if self._sock is None:
            return False
        readable, _, _ = select.select([self._sock], [], [], 0)
        return bool(readable)

    def recv(self) -> Optional[ReplyMessage]:
        if self._sock is None:
            raise EOFError(f"{self.describe()} is not connected")
        try:
            frame = _recv_frame(self._sock)
        except EOFError:
            self._dead = True
            raise
        except (ProtocolError, OSError) as exc:
            self._dead = True
            raise OSError(f"{self.describe()}: {exc}") from exc
        if frame[0] == "result" and len(frame) == 4:
            _, seq, ok, payload = frame
            return int(seq), bool(ok), payload
        if frame[0] == "heartbeat":
            return None
        self._dead = True
        raise OSError(f"unexpected {frame[0]!r} frame from {self.describe()}")

    def wait_handles(self) -> List[Any]:
        return [] if self._sock is None else [self._sock]

    def is_alive(self) -> bool:
        return not self._dead

    def kill(self) -> None:
        self._dead = True
        sock, self._sock = self._sock, None
        if sock is not None:
            with suppress(OSError):
                sock.close()

    def terminate(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            with suppress(OSError):
                _send_frame(sock, ("bye",))
            with suppress(OSError):
                sock.close()
        self._dead = True

    def respawn(self) -> "TcpTransport":
        return TcpTransport(self.host, self.port, self.connect_timeout)

    @property
    def pid(self) -> Optional[int]:
        return self._pid

    def describe(self) -> str:
        return f"worker agent tcp://{self.host}:{self.port}"


# -- the standalone worker agent ----------------------------------------------------------


class WorkerAgent:
    """A standalone TCP worker: accept a scheduler, execute its cells.

    The agent serves **one client connection at a time** (the scheduler
    opens exactly one per endpoint entry) and executes every cell in a
    child process — the same :func:`worker_loop` the local transport
    uses — so a cell that crashes its process (SIGKILL, OOM) is
    reported to the client as a failed attempt and the child is
    respawned, and a client that disconnects mid-cell (timeout kill,
    scheduler abort) has its cell killed rather than left burning CPU.
    While a cell runs, the agent emits ``heartbeat`` frames every
    ``heartbeat_interval`` seconds so the client can tell a long cell
    from a dead link.  The listener stays up across client connections,
    which is what makes scheduler-side reconnects (retry after a drop)
    work against the same agent.

    Programmatic use (tests, embedding)::

        agent = WorkerAgent("127.0.0.1", 0)   # port 0: ephemeral
        agent.start()                          # serve on a daemon thread
        ... ProcessBackend(endpoint=f"tcp://127.0.0.1:{agent.port}") ...
        agent.stop()

    or as a context manager (``with WorkerAgent(...) as agent:``).  The
    CLI entry point is :func:`main`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, heartbeat_interval: float = 2.0) -> None:
        self.heartbeat_interval = float(heartbeat_interval)
        # The execution child MUST use the spawn start method.  A forked
        # child would inherit every open fd — including the client
        # socket — so a duplicate of the connection would survive in the
        # child and the peer closing its end would never read as EOF
        # here (the disconnect-aborts-the-cell contract would silently
        # break).  Forking from a threaded process (the agent serves on
        # a thread when embedded) can also deadlock the child on an
        # inherited lock; spawn starts from a clean interpreter.
        self._ctx = multiprocessing.get_context("spawn")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self._listener.settimeout(_SERVE_TICK)
        self.host = self._listener.getsockname()[0]
        self.port = int(self._listener.getsockname()[1])
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._child: Optional[LocalProcessTransport] = None

    # -- lifecycle ------------------------------------------------------------------------

    def start(self) -> "WorkerAgent":
        """Serve on a daemon thread (for tests and embedding); returns self."""
        thread = threading.Thread(
            target=self.serve_forever, daemon=True, name=f"repro-agent-{self.port}"
        )
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, close the listener, reap the execution child."""
        self._stop.set()
        with suppress(OSError):
            self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._teardown_child()

    def __enter__(self) -> "WorkerAgent":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the serve loop -------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve scheduler connections until :meth:`stop`."""
        try:
            while not self._stop.is_set():
                try:
                    client, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed by stop()
                try:
                    self._serve_client(client)
                finally:
                    with suppress(OSError):
                        client.close()
        finally:
            self._teardown_child()

    def _serve_client(self, client: socket.socket) -> None:
        client.settimeout(_FRAME_TIMEOUT)
        busy: Optional[int] = None
        try:
            # Every client session gets a fresh execution child.  Batch
            # tokens are only unique per scheduler instance, so a child
            # surviving from a previous client could serve that client's
            # cached callable for a colliding token — silently running
            # the wrong function.
            self._teardown_child()
            child = self._ensure_child()
            _send_frame(client, ("hello", PROTOCOL_VERSION, child.pid))
            last_send = time.monotonic()
            while not self._stop.is_set():
                # A dead child (the cell SIGKILLed itself, OOM) is handled
                # here, at the top, so a death is never masked by a respawn:
                # drain any reply it buffered before crashing, fail the
                # in-flight cell, and only then start a fresh child.
                child = self._child
                if child is None or not child.is_alive():
                    if child is not None:
                        busy = self._relay_replies(client, child, busy)
                    self._teardown_child()
                    if busy is not None:
                        _send_frame(
                            client,
                            ("result", busy, False, "worker process died mid-cell (remote)"),
                        )
                        busy = None
                        last_send = time.monotonic()
                    child = self._ensure_child()
                ready = connection_wait(
                    [client, child.conn, child.process.sentinel], _SERVE_TICK
                )
                # 1. Relay finished cells before anything else, so a
                #    reply buffered just before a crash is not lost.
                if child.conn in ready:
                    busy = self._relay_replies(client, child, busy)
                    last_send = time.monotonic()
                # 2. The sentinel fired: loop back so the death handler
                #    above runs against this same child before any respawn.
                if not child.is_alive():
                    continue
                # 3. Client frames: tasks in, plus goodbye/garbage out.
                if client in ready:
                    frame = _recv_frame(client)
                    if frame[0] == "task" and len(frame) == 5:
                        _, seq, token, fn_bytes, item = frame
                        child.send((int(seq), int(token), fn_bytes, item))
                        busy = int(seq)
                    elif frame[0] == "heartbeat":
                        pass
                    elif frame[0] == "bye":
                        return
                    else:
                        raise ProtocolError(f"unexpected {frame[0]!r} frame from client")
                # 4. Heartbeat while a cell runs, so the client can tell
                #    a long cell from a dead link.
                now = time.monotonic()
                if busy is not None and now - last_send >= self.heartbeat_interval:
                    _send_frame(client, ("heartbeat",))
                    last_send = now
        except (EOFError, OSError, ProtocolError):
            # The client vanished or spoke garbage.  Either way this
            # connection is over; fall through to the abort below.
            pass
        finally:
            if busy is not None:
                # The client is gone with a cell still running: kill the
                # child so the next client starts against an idle agent.
                self._teardown_child()

    def _relay_replies(
        self, client: socket.socket, child: LocalProcessTransport, busy: Optional[int]
    ) -> Optional[int]:
        """Forward every buffered child reply to the client as result frames."""
        while True:
            try:
                if not child.poll():
                    return busy
                reply = child.recv()
            except (EOFError, OSError):
                return busy  # child pipe died: the liveness check respawns it
            if reply is None:
                continue
            seq, ok, payload = reply
            if busy == seq:
                busy = None
            # A send failure here is the *client* socket dying; let it
            # propagate so the outer handler aborts this connection.
            _send_frame(client, ("result", seq, ok, payload))

    # -- child management -----------------------------------------------------------------

    def _ensure_child(self) -> LocalProcessTransport:
        child = self._child
        if child is None or not child.is_alive():
            self._teardown_child()
            child = LocalProcessTransport(self._ctx)
            self._child = child
        return child

    def _teardown_child(self) -> None:
        child, self._child = self._child, None
        if child is not None:
            child.terminate()


# -- CLI ----------------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.experiments.remote --listen host:port`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.remote",
        description=(
            "Standalone TCP worker agent for ProcessBackend(endpoint=...). "
            "Speaks the length-prefixed pickle protocol (see docs/distributed.md); "
            "run only on trusted networks."
        ),
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on (port 0 picks an ephemeral port, printed at startup)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="heartbeat interval while a cell is running (default: 2.0)",
    )
    args = parser.parse_args(None if argv is None else list(argv))
    host, sep, port_text = args.listen.rpartition(":")
    if not sep or not host:
        parser.error(f"--listen expects HOST:PORT, got {args.listen!r}")
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"--listen port must be an integer, got {port_text!r}")
    agent = WorkerAgent(host.strip("[]"), port, heartbeat_interval=args.heartbeat)
    print(
        f"repro worker agent listening on tcp://{agent.host}:{agent.port} "
        f"(protocol v{PROTOCOL_VERSION})",
        flush=True,
    )
    try:
        agent.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        agent.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
