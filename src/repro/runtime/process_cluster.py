"""Agent-per-partition cluster: real distributed-memory execution.

Each partition's :class:`~repro.runtime.host.ComputeHost` lives in its own
OS process with a private address space — the closest single-machine
analogue of the paper's one-partition-per-VM deployment.  That process is
an *agent*, and where it runs is configuration, not a second runtime:

* ``hosts=None`` — the driver forks each partition's agent on one end of a
  ``socket.socketpair()``.  Its init arguments are inherited through the
  fork, never pickled.
* ``hosts=["host:port", ...]`` — the driver connects to agents somebody
  started (``tibsp worker``, :func:`serve_worker`) and sends the same init
  arguments in an ``("init", args)`` handshake; the agent answers
  ``("ready", incarnation)`` and outlives the session.

Either way the driver talks to agents over one transport, :class:`_SocketConn`:
each ``send_bytes`` payload is one length-prefixed frame on the byte
stream, written with one ``sendmsg``.  What travels on it is the protocol
of :mod:`repro.runtime.protocol`: the agent's session loop feeds each
command envelope to a :class:`~repro.runtime.protocol.Agent` and performs
the wire actions it returns, and the driver's gather is the
:class:`~repro.runtime.cluster.Cluster` loop over a
:class:`~repro.runtime.protocol.Gather` — the same two objects
:class:`~repro.runtime.cluster.LocalCluster` calls directly.  A resent
command is answered from the agent's reply cache without re-executing, so
a dropped, duplicated, reordered or corrupted reply frame is cured by
sending the same command again.

Everything crossing a connection is pickled with **protocol 5 and
out-of-band buffers**: a :class:`~repro.core.messages.MessageFrame`'s
destination array and any numpy payloads travel as raw buffers after the
pickle body instead of being copied into it — the bulk-transfer idiom from
the mpi4py guides.  Computations, instance sources and message payloads
must be picklable (module-level classes and numpy arrays).

An injected ``kill`` closes the session: a forked agent then returns and
its process exits, a ``hosts`` agent goes back to ``accept``; either way
the driver reads EOF (:class:`~repro.runtime.protocol.WorkerLost`), and
recovery respawns — forks a new agent, or reconnects to the same ``hosts``
address at a higher incarnation.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import select
import socket
import struct
import time
import traceback
from typing import Any, Sequence

from ..core.computation import TimeSeriesComputation
from ..partition.base import PartitionedGraph
from ..resilience.faults import FaultPlan
from .cluster import Cluster
from .cost import CostModel
from .host import HostSpec, InstanceSource, RunMeta
from .protocol import (
    CLOSE,
    CORRUPT,
    SEND,
    SLEEP,
    Agent,
    GatherTimeout,
    RecoverableWorkerError,
    WorkerError,
    WorkerLost,
)

__all__ = [
    "GatherTimeout",
    "ProcessCluster",
    "RecoverableWorkerError",
    "WorkerError",
    "WorkerLost",
    "parse_hosts",
    "serve_worker",
]

#: Sanity cap on the out-of-band buffer count a header may declare.  A real
#: reply ships at most a few buffers per message frame; a corrupt header
#: reinterpreted as a count can claim billions and drive the receive loop
#: into allocating garbage.
_MAX_OOB_BUFFERS = 1 << 20

#: Sanity cap on a single transport frame.  An honest peer's largest frame
#: is a pickled deliveries/state payload; a desynced or hostile stream can
#: claim 2**64 and drive the receive loop into allocating garbage.
_MAX_FRAME_BYTES = 1 << 34

#: Deliberately malformed wire bytes used by the ``corrupt_frame`` fault: claims
#: seven out-of-band buffers but is far too short to carry their sizes.
_CORRUPT_WIRE_BYTES = struct.pack("<I", 7) + b"corrupted-frame!"

#: How long connecting to a ``hosts`` agent, and its ready handshake, may take
#: (an agent still serving its previous session accepts the next one late).
_CONNECT_TIMEOUT_S = 10.0

#: Local agents are forked: their init arguments are inherited, not pickled.
_FORK_CONTEXT = mp.get_context("fork")


def parse_hosts(spec: str | Sequence[str]) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or a sequence of such) to pairs.

    An IPv6 host is bracketed (``[::1]:9000``); a port is 0-65535.
    """
    if isinstance(spec, str):
        parts = [s for s in (piece.strip() for piece in spec.split(",")) if s]
    else:
        parts = [str(s).strip() for s in spec]
    out: list[tuple[str, int]] = []
    for part in parts:
        host, sep, port = part.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        if not sep or not host:
            raise ValueError(f"worker address {part!r} is not host:port")
        try:
            number = int(port)
        except ValueError:
            raise ValueError(f"worker address {part!r} has a non-integer port") from None
        if not 0 <= number <= 65535:
            raise ValueError(f"worker address {part!r} has a port outside 0-65535")
        out.append((host, number))
    if not out:
        raise ValueError("no worker addresses given")
    return out


# -- the transport (driver and agents) ------------------------------------------------


class _SocketConn:
    """The one transport: message frames over a blocking stream socket.

    Frames every ``send_bytes`` payload with an 8-byte little-endian length
    so the byte stream carries whole messages; ``recv_bytes`` reads exactly
    one frame.  A closed peer raises :class:`EOFError`, which the driver's
    failure classification turns into :class:`WorkerLost`.
    """

    def __init__(self, sock: socket.socket) -> None:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # Command/reply envelopes are latency-bound, not throughput-bound.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def send_bytes(self, data) -> None:
        view = memoryview(data).cast("B")
        head = struct.pack("<Q", view.nbytes)
        # Prefix and payload in one syscall; a large frame may leave a tail.
        sent = self._sock.sendmsg([head, view])
        if sent < len(head):
            self._sock.sendall(head[sent:])
            sent = len(head)
        if sent - len(head) < view.nbytes:
            self._sock.sendall(view[sent - len(head):])

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


def _send_oob(conn, obj: Any) -> None:
    """Send ``obj`` with pickle protocol 5, shipping buffers out-of-band.

    Wire format per message: a header with the buffer count and sizes, the
    pickle body (with large contiguous buffers extracted), then each raw
    buffer.  Contiguous numpy arrays — frame destination vectors, array
    payloads — cross the connection without being serialized into the
    pickle stream.
    """
    buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    conn.send_bytes(struct.pack(f"<I{len(raws)}Q", len(raws), *(r.nbytes for r in raws)))
    conn.send_bytes(body)
    for raw in raws:
        conn.send_bytes(raw)


def _wait_readable(conn, deadline: float | None, what: str) -> None:
    """Block until ``conn`` is readable or ``deadline`` passes.

    The two timeout shapes are reported distinctly so failure logs can
    attribute slow workers correctly: a deadline that was already spent
    before this read (earlier reads in the same round consumed the whole
    window) versus a worker that produced nothing during the poll itself.
    """
    if deadline is None:
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        # The round's window was spent by earlier reads; a zero-timeout
        # poll still drains replies that already arrived.
        if conn.poll(0):
            return
        raise GatherTimeout(
            f"timed out waiting for {what}: deadline already expired "
            f"{-remaining:.3f}s before poll"
        )
    if not conn.poll(remaining):
        raise GatherTimeout(
            f"timed out waiting for {what}: no data within {remaining:.3f}s poll window"
        )


def _recv_oob(conn, *, deadline: float | None = None, what: str = "message") -> Any:
    """Receive one :func:`_send_oob` message (body + out-of-band buffers).

    Buffers are received into exactly-sized *writeable* bytearrays, so
    reconstructed arrays behave like the in-process executors' (mutable by
    the receiving computation), with no copy beyond the socket read itself.

    The header is validated before it drives any allocation: a truncated or
    corrupted stream raises :class:`WorkerError` with context (never a bare
    ``struct.error``), and when ``deadline`` (a ``time.monotonic`` instant)
    is given, every read is bounded by it, raising :class:`GatherTimeout`
    instead of blocking forever.
    """
    _wait_readable(conn, deadline, what)
    header = conn.recv_bytes()
    if len(header) < 4:
        raise WorkerError(f"corrupt {what}: header is {len(header)} bytes, expected at least 4")
    (num_buffers,) = struct.unpack_from("<I", header)
    if num_buffers > _MAX_OOB_BUFFERS or len(header) != 4 + 8 * num_buffers:
        raise WorkerError(
            f"corrupt {what}: header declares {num_buffers} out-of-band buffer(s) "
            f"but is {len(header)} bytes (expected {4 + 8 * min(num_buffers, _MAX_OOB_BUFFERS)})"
        )
    sizes = struct.unpack_from(f"<{num_buffers}Q", header, 4)
    _wait_readable(conn, deadline, what)
    body = conn.recv_bytes()
    buffers = []
    for size in sizes:
        buf = bytearray(size)
        _wait_readable(conn, deadline, what)
        try:
            if size:
                conn.recv_bytes_into(buf)
            else:  # zero-length buffers still occupy a wire slot
                conn.recv_bytes()
        except mp.BufferTooShort as exc:
            raise WorkerError(
                f"corrupt {what}: out-of-band buffer larger than its declared "
                f"size {size} ({len(exc.args[0]) if exc.args else '?'} bytes)"
            ) from exc
        buffers.append(buf)
    try:
        return pickle.loads(body, buffers=buffers)
    except Exception as exc:
        raise WorkerError(
            f"corrupt {what}: body failed to unpickle ({type(exc).__name__}: {exc})"
        ) from exc


# -- the agent ------------------------------------------------------------------------


def _serve_session(conn, init: tuple | None = None) -> str:
    """Serve one driver session on ``conn``: build the host, serve commands
    until ``stop``, ``kill`` or EOF, close the source and the connection.

    ``init`` is :meth:`ProcessCluster._init_args` — ``(spec, partition,
    source, sg_part, fault_plan, incarnation)``.  A forked agent inherits
    it; a ``hosts`` agent (``init=None``) reads it from the driver's
    ``("init", init)`` handshake and answers ``("ready", incarnation)``.

    Each command envelope goes to the session's
    :class:`~repro.runtime.protocol.Agent`, whose wire actions are performed
    here.  A host error the agent does not turn into a recoverable reply (a
    deterministic application error) ships back as a plain
    ``("error", traceback_text, False)`` reply, so the driver re-raises it
    with context instead of dying on a broken connection.

    When ``spec.tracing`` is set the host gets its own tracer; spans recorded
    in the agent ride back to the driver as ``HostStepResult.telemetry`` on
    ordinary replies.  ``time.perf_counter_ns`` is CLOCK_MONOTONIC — one
    system-wide timebase shared with a driver on the same machine — so span
    timestamps need no clock translation.

    Returns ``"stopped"`` on a polite stop, ``"killed"`` on an injected
    kill, ``"eof"`` when the driver went away, ``"bad-command"`` on a
    corrupt frame or an envelope of the wrong shape, and ``"bad-init"`` when
    the handshake is corrupt or does not destructure (another version's
    driver, say): either way only this session ends, never the agent.
    """
    source = None
    try:
        handshake = init is None
        if handshake:
            try:
                tag, init = _recv_oob(conn)
                spec, partition, source, sg_part, fault_plan, incarnation = init
            except (WorkerError, EOFError, OSError, TypeError, ValueError):
                return "bad-init"
            if tag != "init" or not isinstance(spec, HostSpec):
                return "bad-init"
        else:
            spec, partition, source, sg_part, fault_plan, incarnation = init
        agent = Agent(spec.build(partition, source, sg_part), fault_plan, incarnation)
        if handshake:
            _send_oob(conn, ("ready", incarnation))
        while True:
            try:
                seq, op, replay, timestep, superstep, payload = _recv_oob(conn)
                seq = int(seq)
            except (WorkerError, TypeError, ValueError):
                return "bad-command"
            if op == "stop":
                _send_oob(conn, (seq, incarnation, None))
                return "stopped"
            try:
                wire = agent.on_command((seq, op, replay, timestep, superstep, payload))
            except Exception:
                wire = [(SEND, (seq, incarnation, ("error", traceback.format_exc(), False)))]
            for verb, value in wire:
                if verb is SEND:
                    _send_oob(conn, value)
                elif verb is SLEEP:
                    time.sleep(value)
                elif verb is CORRUPT:
                    conn.send_bytes(_CORRUPT_WIRE_BYTES)
                elif verb is CLOSE:
                    return "killed"
    except (EOFError, ConnectionError, OSError):  # driver died / connection severed
        return "eof"
    finally:
        close = getattr(source, "close", None)
        if callable(close):  # release prefetch threads between sessions
            close()
        conn.close()


def serve_worker(listen: str | tuple[str, int], *, announce=None) -> None:
    """Run a worker agent: accept driver sessions on ``listen`` forever.

    ``listen`` is ``"host:port"`` (port 0 picks a free one) or a
    ``(host, port)`` pair.  Each accepted connection is one driver
    session — served to completion before the next ``accept`` — so a
    killed or stopped session is survivable: the driver's
    ``respawn_worker`` simply reconnects and re-inits at a higher
    incarnation.  ``announce`` is called with the bound ``(host, port)``
    once listening (the CLI prints it).
    """
    if isinstance(listen, str):
        ((host, port),) = parse_hosts(listen)
    else:
        host, port = listen
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.create_server((host, port), family=family, backlog=4) as lsock:
        if announce is not None:
            announce(lsock.getsockname()[:2])
        while True:
            sock, _ = lsock.accept()
            _serve_session(_SocketConn(sock))


# -- the cluster ----------------------------------------------------------------------


def _connect(address: tuple[str, int], p: int) -> _SocketConn:
    """Connect to ``address``, retrying until ``_CONNECT_TIMEOUT_S`` is spent.

    Each attempt is bounded by what is left of the deadline, so a
    black-holed address costs ``_CONNECT_TIMEOUT_S``, not the kernel's SYN
    timeout.
    """
    deadline = time.monotonic() + _CONNECT_TIMEOUT_S
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


class ProcessCluster(Cluster):
    """One worker agent per partition, each driven over one socket.

    Parameters mirror :class:`~repro.runtime.cluster.LocalCluster`, except
    instance ``sources`` are mandatory: each agent must be able to produce
    its instances *inside its own process* (a lazy generator-backed source or
    a GoFS view — not a pre-materialized shared list, which would defeat the
    isolation).  ``hosts`` (``"host:port,..."`` or a sequence, one per
    partition) names agents somebody started; ``None`` forks them here.
    ``gather_timeout_s``, ``fault_plan`` and ``retry_policy`` are every
    :class:`~repro.runtime.cluster.Cluster`'s; ``fault_plan`` is shipped to
    every agent (spent-fault bookkeeping stays per-session; the incarnation
    guard is what keeps faults from re-firing after a respawn).

    Use as a context manager (``with ProcessCluster(...) as cluster:``) to
    guarantee agents are reaped even when the driver raises mid-run.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        computation: TimeSeriesComputation,
        meta: RunMeta,
        sources: Sequence[InstanceSource],
        *,
        hosts: str | Sequence[str] | None = None,
        cost_model: CostModel | None = None,
        use_combiners: bool = True,
        tracing: bool = False,
        gather_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: Any = None,
    ) -> None:
        self._hosts = None if hosts is None else parse_hosts(hosts)
        if self._hosts is not None and len(self._hosts) != pg.num_partitions:
            raise ValueError(
                f"need exactly one worker address per partition "
                f"({len(self._hosts)} given, {pg.num_partitions} partitions)"
            )
        spec = HostSpec(computation, meta, cost_model or CostModel(), use_combiners, tracing)
        super().__init__(pg, spec, sources, fault_plan, gather_timeout_s, retry_policy)
        self._conns: list[Any] = [None] * pg.num_partitions
        self._procs: list[Any] = [None] * pg.num_partitions
        # If any start fails (fork, connect, handshake), tear down the agents
        # already started instead of leaking daemon processes that outlive
        # the failed constructor.
        try:
            for p in range(pg.num_partitions):
                self._open(p)
        except BaseException:
            self._teardown(force=True)
            raise

    def _init_args(self, p: int) -> tuple:
        """What partition ``p``'s agent is started from — inherited by a
        forked agent, sent to a ``hosts`` agent in its ``init`` handshake."""
        return (
            self._spec,
            self._pg.partitions[p],
            self._sources[p],
            self._sg_part,
            self.fault_plan,
            self.incarnations[p],
        )

    # -- the channel ------------------------------------------------------------------

    def _open(self, p: int) -> None:
        """Open partition ``p``'s session at its current incarnation: fork
        its agent on one end of a socketpair, or connect to its ``hosts``
        agent and hand it the init arguments."""
        if self._hosts is None:
            conn, child = (_SocketConn(s) for s in socket.socketpair())
            try:
                proc = _FORK_CONTEXT.Process(
                    target=_serve_session, args=(child, self._init_args(p)), daemon=True
                )
                proc.start()
            except BaseException:
                conn.close()
                raise
            finally:
                child.close()  # the agent holds its own copy
            self._conns[p], self._procs[p] = conn, proc
            return
        conn = _connect(self._hosts[p], p)
        try:
            _send_oob(conn, ("init", self._init_args(p)))
            reply = _recv_oob(
                conn,
                deadline=time.monotonic() + _CONNECT_TIMEOUT_S,
                what=f"partition {p} ready handshake",
            )
            if reply != ("ready", self.incarnations[p]):
                raise WorkerLost(
                    f"partition {p} worker sent a bad handshake reply: {reply!r}",
                    partition=p,
                )
        except BaseException:
            conn.close()
            raise
        # A hosts agent's lifecycle belongs to whoever started it: no process to reap.
        self._conns[p] = conn

    def _close(self, p: int) -> None:
        """Reap one agent, leaving a None slot; its connection (and any
        garbage queued on it) is discarded wholesale."""
        conn, proc = self._conns[p], self._procs[p]
        self._conns[p] = self._procs[p] = None
        if conn is not None:
            conn.close()
        if proc is not None:
            self._reap(proc)

    def _send(self, p: int, command: tuple) -> None:
        try:
            _send_oob(self._conns[p], command)
        except OSError as exc:
            raise WorkerLost(
                f"partition {p} worker is gone (send failed: {exc!r})", partition=p
            ) from exc

    def _receive(self, p: int, deadline: float | None):
        return _recv_oob(self._conns[p], deadline=deadline, what=f"partition {p} reply")

    # -- lifecycle --------------------------------------------------------------------

    def _teardown(self, *, force: bool = False) -> None:
        """Reap every worker; never hangs, never leaks.

        The polite path (``force=False``) offers each worker a ``stop``
        command and briefly waits for its ack; the forced path skips
        straight to closing connections.  Either way every process is joined with
        a bounded timeout, then terminated, then killed — a wedged or
        desynced worker cannot stall shutdown.
        """
        # Quarantined partitions hold None placeholders (already reaped), and
        # ``hosts`` agents have no process here.
        conns = [(p, c) for p, c in enumerate(self._conns) if c is not None]
        procs = [proc for proc in self._procs if proc is not None]
        self._conns, self._procs = [], []
        if not force:
            for _, conn in conns:
                try:
                    # Agents honor "stop" regardless of sequence number.
                    _send_oob(conn, (1 << 30, "stop", False, -1, -1, None))
                except OSError:
                    pass
            for p, conn in conns:
                try:
                    # Loose ack read: stale cached replies may precede it.
                    _recv_oob(conn, deadline=time.monotonic() + 1.0, what="stop ack")
                except (WorkerError, EOFError, ConnectionError, OSError) as exc:
                    # Expected during shutdown (worker already gone, timed
                    # out, or a stale corrupt frame) — but surface it in the
                    # event stream instead of losing it entirely.
                    tr = self.driver_tracer
                    if tr is not None:
                        tr.event(
                            "teardown_error",
                            partition=p,
                            where="stop_ack",
                            error=f"{type(exc).__name__}: {exc}",
                        )
        for _, conn in conns:
            conn.close()
        if force:
            # Don't wait for workers to notice the closed sockets: forked
            # siblings inherit each other's socket fds, so a worker blocked in
            # recv may never see EOF until the others die.  Forced teardown
            # means their state is already forfeit — SIGTERM them up front.
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        for proc in procs:
            proc.join(timeout=2.0 if force else 5.0)  # grace to exit on its own
            self._reap(proc)

    @staticmethod
    def _reap(proc) -> None:
        """The reap ladder: terminate → join → kill → join, each bounded."""
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - terminate refused
            proc.kill()
            proc.join(timeout=1.0)

    def shutdown(self) -> None:
        self._teardown()
        # The driver-side source templates are the caller's objects; if any
        # were used directly before the run they may hold prefetch threads.
        super().shutdown()

