"""Socket-per-partition cluster: TI-BSP over TCP.

:class:`SocketCluster` is the distributed-deployment shape of
:class:`~repro.runtime.process_cluster.ProcessCluster`: each partition's
:class:`~repro.runtime.host.ComputeHost` lives in an independent process
reachable over a TCP connection instead of an inherited pipe.  Workers can
run anywhere — started by hand (or an orchestrator) via the ``tibsp
worker`` CLI entrypoint and addressed with ``hosts=["host:port", ...]`` —
or, when ``hosts`` is ``None``, auto-spawned as local processes so tests
and CI need no orchestration.

The wire discipline is exactly the pipes' hardened frame protocol:
commands are ``(seq, op, replay, timestep, superstep, payload)`` envelopes,
replies ``(seq, incarnation, payload)``, workers answer resends from a
one-deep reply cache without re-executing, and the driver deduplicates
stale frames — see :mod:`~repro.runtime.process_cluster` for the full
contract.  That is possible because
:func:`~repro.runtime.process_cluster._send_oob` / ``_recv_oob`` only use
the ``multiprocessing.Connection`` API surface (``send_bytes`` /
``recv_bytes`` / ``recv_bytes_into`` / ``poll`` / ``close``), so this
module supplies one transport adapter, :class:`_SocketConn`, used by the
driver and the workers alike: a blocking adapter over a connected socket.
Each ``send_bytes`` payload becomes one length-prefixed frame (``<Q``
prefix), re-creating the pipes' message-oriented semantics on the byte
stream; ``poll`` is a ``select``.

Because TCP connections are true peer-to-peer (unlike pipes, whose write
ends are inherited by every forked sibling), a dying worker's FIN reaches
the driver promptly and surfaces as ``EOFError`` → :class:`WorkerLost` —
no special-casing needed for the surgical-recovery path.  Network faults
(``drop_frame``/``corrupt_frame``/...) act at the worker's socket layer,
so the driver cures real socket-level drops and garbage frames with the
same idempotent resends as over pipes.
"""

from __future__ import annotations

import multiprocessing as mp
import select
import socket
import struct
import threading
import time
from typing import Any, Sequence

from .host import HostSpec
from .process_cluster import (
    ProcessCluster,
    WorkerError,
    WorkerLost,
    _recv_oob,
    _send_oob,
    _serve_commands,
)

__all__ = [
    "SocketCluster",
    "parse_hosts",
    "serve_worker",
]

#: Sanity cap on a single transport frame.  An honest peer's largest frame
#: is a pickled deliveries/state payload; a desynced or hostile stream can
#: claim 2**64 and drive the receive loop into allocating garbage.
_MAX_FRAME_BYTES = 1 << 34

#: How long connect/handshake attempts retry before giving up (a freshly
#: forked local agent needs a beat before its listener accepts).
_DEFAULT_CONNECT_TIMEOUT_S = 10.0


def parse_hosts(spec: str | Sequence[str]) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or a sequence of such) to pairs."""
    if isinstance(spec, str):
        parts = [s for s in (piece.strip() for piece in spec.split(",")) if s]
    else:
        parts = [str(s).strip() for s in spec]
    out: list[tuple[str, int]] = []
    for part in parts:
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise ValueError(f"worker address {part!r} is not host:port")
        try:
            out.append((host, int(port)))
        except ValueError:
            raise ValueError(f"worker address {part!r} has a non-integer port") from None
    if not out:
        raise ValueError("no worker addresses given")
    return out


# -- the transport (driver and workers) -----------------------------------------------


class _SocketConn:
    """``multiprocessing.Connection``-shaped adapter over a blocking socket.

    Frames every ``send_bytes`` payload with an 8-byte little-endian length
    so the stream keeps the pipes' message orientation; ``recv_bytes``
    reads exactly one frame.  A closed peer raises :class:`EOFError` (the
    pipe contract the driver's failure classification relies on).
    """

    def __init__(self, sock: socket.socket) -> None:
        try:
            # Command/reply envelopes are latency-bound, not throughput-bound.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (e.g. a test's AF_UNIX socketpair)
        self._sock = sock

    def send_bytes(self, data) -> None:
        view = memoryview(data)
        self._sock.sendall(struct.pack("<Q", view.nbytes))
        self._sock.sendall(view)

    def _read_exactly(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            chunk = self._sock.recv(n - len(out))
            if not chunk:
                raise EOFError("socket closed mid-frame")
            out += chunk
        return bytes(out)

    def _read_frame_len(self) -> int:
        (length,) = struct.unpack("<Q", self._read_exactly(8))
        if length > _MAX_FRAME_BYTES:
            raise WorkerError(
                f"transport frame declares {length} bytes "
                f"(cap {_MAX_FRAME_BYTES}); stream is desynced or corrupt"
            )
        return length

    def recv_bytes(self) -> bytes:
        return self._read_exactly(self._read_frame_len())

    def recv_bytes_into(self, buf) -> int:
        length = self._read_frame_len()
        view = memoryview(buf)
        if length > view.nbytes:
            # Mirror multiprocessing: the oversized message rides in args[0].
            raise mp.BufferTooShort(self._read_exactly(length))
        read = 0
        while read < length:
            got = self._sock.recv_into(view[read:length])
            if not got:
                raise EOFError("socket closed mid-frame")
            read += got
        return length

    def poll(self, timeout: float = 0.0) -> bool:
        ready, _, _ = select.select([self._sock], [], [], max(timeout, 0.0))
        return bool(ready)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


# -- worker agent ---------------------------------------------------------------------


def _serve_session(conn, *, exit_on_kill: bool) -> str:
    """Serve one driver session on ``conn``: handshake, then commands.

    The driver opens a session with ``("init", args)``, ``args`` being
    :meth:`ProcessCluster._init_args` — exactly what a pipe worker gets as
    process arguments: ``(spec, partition, source, sg_part, fault_plan,
    incarnation)``; the worker answers ``("ready", incarnation)`` and then
    speaks the ordinary command protocol.  Returns
    :func:`_serve_commands`' disposition (``stopped`` / ``killed`` / ``eof``
    / ``bad-command``) or ``"bad-init"`` when the handshake is corrupt or
    does not destructure (another version's driver, say): either way only
    this session ends, never the agent.
    """
    source = None
    try:
        try:
            tag, (spec, partition, source, sg_part, fault_plan, incarnation) = _recv_oob(conn)
        except (WorkerError, EOFError, OSError, TypeError, ValueError):
            return "bad-init"
        if tag != "init" or not isinstance(spec, HostSpec):
            return "bad-init"
        host = spec.build(partition, source, sg_part)
        try:
            _send_oob(conn, ("ready", incarnation))
        except (ConnectionError, OSError):
            return "eof"
        return _serve_commands(conn, host, fault_plan, incarnation, exit_on_kill=exit_on_kill)
    finally:
        close = getattr(source, "close", None)
        if callable(close):  # release prefetch threads between sessions
            close()
        conn.close()


def serve_worker(
    listen: str | tuple[str, int],
    *,
    once: bool = False,
    exit_on_kill: bool = False,
    announce=None,
    _ready: threading.Event | None = None,
) -> tuple[str, int]:
    """Run a worker agent: accept driver sessions on ``listen`` forever.

    ``listen`` is ``"host:port"`` (port 0 picks a free one) or a
    ``(host, port)`` pair.  Each accepted connection is one driver
    session — served to completion before the next ``accept`` — so a
    killed/stopped session is survivable: the driver's ``respawn_worker``
    simply reconnects and re-inits at a higher incarnation.  ``once``
    serves a single session then returns (the auto-spawn agent's mode);
    ``exit_on_kill`` makes an injected ``kill`` fault terminate the whole
    agent process rather than just the session.  ``announce`` is called
    with the bound ``(host, port)`` once listening (the CLI prints it).
    Returns the bound address when the loop exits.
    """
    if isinstance(listen, str):
        ((host, port),) = parse_hosts(listen)
    else:
        host, port = listen
    lsock = socket.create_server((host, port), backlog=4, reuse_port=False)
    try:
        bound = lsock.getsockname()[:2]
        if announce is not None:
            announce(bound)
        if _ready is not None:
            _ready.set()
        _serve_on(lsock, once=once, exit_on_kill=exit_on_kill)
        return bound
    finally:
        lsock.close()


def _serve_on(lsock: socket.socket, *, once: bool, exit_on_kill: bool) -> None:
    """Accept-and-serve loop shared by :func:`serve_worker` and auto-spawn."""
    while True:
        try:
            sock, _ = lsock.accept()
        except OSError:  # listener closed under us
            return
        _serve_session(_SocketConn(sock), exit_on_kill=exit_on_kill)
        if once:
            return


def _agent_main(lsock: socket.socket) -> None:
    """Auto-spawned local agent: one session on an inherited listener.

    The parent creates (and starts listening on) ``lsock`` *before*
    forking, so its connect lands in the kernel backlog even if this child
    is slow to reach ``accept``.  ``exit_on_kill=True``: an injected
    ``kill`` dies for real (``os._exit(17)``), giving the driver a
    genuinely dead worker to detect and respawn — identical failure
    semantics to :class:`ProcessCluster` workers.
    """
    with lsock:
        _serve_on(lsock, once=True, exit_on_kill=True)


# -- the cluster ----------------------------------------------------------------------


class _RemoteWorkerHandle:
    """Process-shaped stand-in for an externally managed ``tibsp worker``.

    The driver cannot see a remote agent's process, so liveness questions
    are answered optimistically: ``is_alive`` is True (a truly dead peer
    surfaces as EOF on its connection → :class:`WorkerLost`), and
    terminate/kill/join are no-ops — the agent's lifecycle belongs to
    whoever started it.  Keeping ``is_alive`` True routes gather timeouts
    into the protocol-retry path (resend → reply cache) instead of an
    immediate respawn, exactly like a live-but-slow local worker.
    """

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.exitcode = None

    def is_alive(self) -> bool:
        return True

    def terminate(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def join(self, timeout: float | None = None) -> None:
        pass


class SocketCluster(ProcessCluster):
    """One worker per partition, driven over TCP.

    Two deployment modes, selected by ``hosts``:

    * ``hosts=None`` (default) — **auto-spawn**: one local agent process
      per partition, each listening on an ephemeral localhost port.  No
      orchestration needed; failure semantics match
      :class:`ProcessCluster` (an injected ``kill`` really kills the
      process, ``respawn_worker`` forks a fresh agent).
    * ``hosts=["host:port", ...]`` — **external**: one pre-started ``tibsp
      worker`` agent per partition.  ``respawn_worker`` reconnects to the
      same address and re-initializes the host at a higher incarnation —
      the agent survives its sessions, so recovery needs no remote process
      control.

    Everything else — the sequenced scatter/gather, protocol retries,
    surgical recovery, quarantine, teardown — is inherited unchanged from
    :class:`ProcessCluster`; only ``_spawn_one`` (transport + handshake)
    differs.
    """

    def __init__(
        self,
        pg,
        computation,
        meta,
        sources,
        *,
        hosts: str | Sequence[str] | None = None,
        connect_timeout_s: float = _DEFAULT_CONNECT_TIMEOUT_S,
        **kwargs: Any,
    ) -> None:
        self._hosts = None if hosts is None else parse_hosts(hosts)
        if self._hosts is not None and len(self._hosts) != pg.num_partitions:
            raise ValueError(
                f"need exactly one worker address per partition "
                f"({len(self._hosts)} given, {pg.num_partitions} partitions)"
            )
        if connect_timeout_s <= 0:
            raise ValueError("connect_timeout_s must be positive")
        self.connect_timeout_s = connect_timeout_s
        super().__init__(pg, computation, meta, sources, **kwargs)

    # -- transport --------------------------------------------------------------------

    def _connect(self, address: tuple[str, int], p: int) -> _SocketConn:
        """Connect to ``address``, retrying until ``connect_timeout_s`` is spent.

        Each attempt is bounded by what is left of the deadline, so a
        black-holed address costs ``connect_timeout_s``, not the kernel's
        SYN timeout.
        """
        deadline = time.monotonic() + self.connect_timeout_s
        while True:
            try:
                sock = socket.create_connection(
                    address, timeout=max(deadline - time.monotonic(), 1e-3)
                )
            except OSError as exc:  # refused, unreachable, timed out, ...
                left = deadline - time.monotonic()
                if left <= 0:
                    raise WorkerLost(
                        f"partition {p} worker at {address[0]}:{address[1]} is unreachable "
                        f"({exc!r})",
                        partition=p,
                    ) from exc
                time.sleep(min(0.05, left))
            else:
                sock.settimeout(None)  # the connect bound must not time reads out
                return _SocketConn(sock)

    def _handshake(self, conn: _SocketConn, p: int) -> None:
        _send_oob(conn, ("init", self._init_args(p)))
        reply = _recv_oob(
            conn,
            deadline=time.monotonic() + self.connect_timeout_s,
            what=f"partition {p} ready handshake",
        )
        if reply != ("ready", self.incarnations[p]):
            raise WorkerLost(
                f"partition {p} worker sent a bad handshake reply: {reply!r}",
                partition=p,
            )

    def _spawn_one(self, p: int):
        """Connect partition ``p``'s worker (spawning it first if local)."""
        if self._hosts is None:
            if self._ctx.get_start_method() != "fork":
                raise ValueError(
                    "auto-spawned socket workers need the 'fork' start method "
                    "(the listening socket is inherited, not pickled); pass "
                    "hosts=[...] to use externally started workers instead"
                )
            # Listen before forking: the kernel backlog accepts our connect
            # even while the child is still booting toward accept().
            lsock = socket.create_server(("127.0.0.1", 0), backlog=1)
            try:
                address = lsock.getsockname()[:2]
                proc = self._ctx.Process(target=_agent_main, args=(lsock,), daemon=True)
                proc.start()
            finally:
                lsock.close()  # child keeps its inherited copy
        else:
            address = self._hosts[p]
            proc = _RemoteWorkerHandle(address)
        conn = self._connect(address, p)
        try:
            self._handshake(conn, p)
        except BaseException:
            conn.close()
            self._reap(proc)
            raise
        return conn, proc
