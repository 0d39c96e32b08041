"""The remote-agent channel and its transport.

A partition whose agent leaves the driver (see
:meth:`repro.runtime.cluster.Cluster._open`, the one place placement is
decided) holds an :class:`AgentChannel`: the agent has its own address
space — the closest single-machine analogue of the paper's
one-partition-per-VM deployment — and runs the same
:class:`~repro.runtime.protocol.Agent` the driver's own partition does:

* :func:`fork` starts it on one end of a ``socket.socketpair()``;
* :func:`connect` reaches an agent somebody started (``tibsp worker``,
  :func:`serve_worker`), which outlives the session.

Either way it starts from one ``("init", (spec, partition, source, sg_part,
fault_plan, incarnation))`` message, so the computation and the instance
source it carries must pickle: instances of module-level classes.

Every remote agent is behind one transport, :class:`_SocketConn`: each
``send_bytes`` payload is one length-prefixed frame on the byte stream,
written with one ``sendmsg``.  What travels on it is the protocol of
:mod:`repro.runtime.protocol`: the agent's session loop feeds each command
envelope to its :class:`~repro.runtime.protocol.Agent` and performs the
wire actions it returns, and the driver's gather is the
:class:`~repro.runtime.cluster.Cluster` loop over a
:class:`~repro.runtime.protocol.Gather` — the same two objects an
in-driver partition calls directly.  A resent command is answered from the
agent's reply cache without re-executing, so a dropped, duplicated,
reordered or corrupted reply frame is cured by sending the same command
again.

Everything crossing a connection is pickled with **protocol 5 and
out-of-band buffers**: a :class:`~repro.core.messages.MessageFrame`'s
destination array and any numpy payloads travel as raw buffers after the
pickle body instead of being copied into it — the bulk-transfer idiom from
the mpi4py guides.  Message payloads must be picklable too (module-level
classes and numpy arrays).

An injected ``kill`` closes the session: a forked agent then returns and
its process exits, a ``hosts`` agent goes back to ``accept``; either way
the driver reads EOF (:class:`~repro.runtime.protocol.WorkerLost`), and
recovery respawns — forks a new agent, or reconnects to the same ``hosts``
address at a higher incarnation.  :func:`stop` is the teardown ladder:
stop → join → terminate → kill, each bounded.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import select
import socket
import struct
import time
from typing import Any, Sequence

from .host import HostSpec
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
    answer,
)

__all__ = [
    "AgentChannel",
    "GatherTimeout",
    "RecoverableWorkerError",
    "WorkerError",
    "WorkerLost",
    "connect",
    "fork",
    "parse_hosts",
    "serve_worker",
    "stop",
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

#: How long connecting to a ``hosts`` agent, and any agent's ready reply, may
#: take (an agent still serving its previous session accepts the next one late).
_CONNECT_TIMEOUT_S = 10.0

#: Local agents are forked, so that the driver reaps them: their CPU reaches
#: ``RUSAGE_CHILDREN`` only then.
_FORK_CONTEXT = mp.get_context("fork")


def parse_hosts(spec: str | Sequence[str]) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or a sequence of such, or of the
    ``(host, port)`` pairs it returns) to pairs.

    An IPv6 host is bracketed (``[::1]:9000``); a port is 0-65535.
    """
    if isinstance(spec, str):
        parts = [s for s in (piece.strip() for piece in spec.split(",")) if s]
    else:
        parts = [s if isinstance(s, tuple) else str(s).strip() for s in spec]
    out: list[tuple[str, int]] = []
    for part in parts:
        if isinstance(part, tuple):
            host, sep, port = str(part[0]), ":", str(part[1])
        else:
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
    failure classification turns into :class:`WorkerLost`; so does a length
    prefix past the frame cap, which leaves no frame boundary to read on
    from.
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
            raise WorkerLost(
                f"transport frame declares {length} bytes "
                f"(cap {_MAX_FRAME_BYTES}); stream is desynced or corrupt"
            )
        return length

    def recv_bytes(self) -> bytes:
        return self._read_exactly(self._read_frame_len())

    def recv_buffer(self, size: int) -> bytearray:
        """Read one frame of exactly ``size`` bytes into a fresh writeable
        buffer, checking its length prefix first: a frame of any other length
        is consumed whole (the stream stays aligned) and refused."""
        length = self._read_frame_len()
        if length != size:
            self._read_exactly(length)
            raise WorkerError(
                f"out-of-band buffer frame of {length} bytes is "
                f"{'larger' if length > size else 'shorter'} than its declared size {size}"
            )
        buf = bytearray(size)
        view, read = memoryview(buf), 0
        while read < size:
            got = self._sock.recv_into(view[read:])
            if not got:
                raise EOFError("socket closed mid-frame")
            read += got
        return buf

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
        _wait_readable(conn, deadline, what)
        buffers.append(conn.recv_buffer(size))
    try:
        return pickle.loads(body, buffers=buffers)
    except Exception as exc:
        raise WorkerError(
            f"corrupt {what}: body failed to unpickle ({type(exc).__name__}: {exc})"
        ) from exc


# -- the agent ------------------------------------------------------------------------


def _serve_session(conn) -> str:
    """Serve one driver session on ``conn``, a forked or a ``hosts`` agent's:
    read the ``("init", args)`` message (what
    :meth:`~repro.runtime.cluster.Cluster._open` starts the agent from), build
    the host, answer ``("ready", incarnation)``, serve commands until
    ``stop``, ``kill`` or EOF, close the source and the connection.

    Each command envelope goes to the session's
    :class:`~repro.runtime.protocol.Agent` through
    :func:`~repro.runtime.protocol.answer` (an application error ships back
    as an error reply), and the wire actions are performed here.

    When ``spec.tracing`` is set the host gets its own tracer; spans recorded
    in the agent ride back to the driver as ``HostStepResult.telemetry`` on
    ordinary replies.  ``time.perf_counter_ns`` is CLOCK_MONOTONIC — one
    system-wide timebase shared with a driver on the same machine — so span
    timestamps need no clock translation.

    Returns ``"stopped"`` on a polite stop, ``"killed"`` on an injected
    kill, ``"eof"`` when the driver went away, ``"bad-command"`` on a
    corrupt frame or an envelope of the wrong shape, and ``"bad-init"`` when
    the init message is corrupt or does not destructure (another version's
    driver, say): either way only this session ends, never the agent.
    """
    try:
        try:
            tag, (spec, partition, source, sg_part, fault_plan, incarnation) = _recv_oob(conn)
        except (WorkerError, EOFError, OSError, TypeError, ValueError):
            return "bad-init"
        if tag != "init" or not isinstance(spec, HostSpec):
            return "bad-init"
        agent = Agent(spec.build(partition, source, sg_part), fault_plan, incarnation)
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
            for verb, value in answer(agent, (seq, op, replay, timestep, superstep, payload)):
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


# -- the driver's channel --------------------------------------------------------------


class AgentChannel:
    """One partition's agent in another process, as a channel: its
    connection, plus the forked process (``None`` for a ``hosts`` agent,
    whose lifecycle belongs to whoever started it).  ``ready`` is the
    ``(incarnation, deadline)`` of the ready reply a new session still owes."""

    __slots__ = ("conn", "proc", "partition", "ready")

    def __init__(self, conn: _SocketConn, proc, partition: int) -> None:
        self.conn, self.proc, self.partition = conn, proc, partition
        self.ready: tuple[int, float] | None = None

    def post(self, command: tuple) -> None:
        try:
            _send_oob(self.conn, command)
        except OSError as exc:
            raise WorkerLost(
                f"partition {self.partition} worker is gone (send failed: {exc!r})",
                partition=self.partition,
            ) from exc

    def receive(self, deadline: float | None):
        p = self.partition
        if self.ready is not None:
            # Checked on the first read, not at the start: the driver computes
            # its own partition while the agent builds its host.
            incarnation, ready_by = self.ready
            reply = _recv_oob(self.conn, deadline=ready_by, what=f"partition {p} ready reply")
            if reply != ("ready", incarnation):
                raise WorkerLost(f"partition {p} agent sent a bad ready reply: {reply!r}",
                                 partition=p)
            self.ready = None
        return _recv_oob(self.conn, deadline=deadline, what=f"partition {p} reply")

    def close(self) -> None:
        """Reap the agent; its connection, and anything still queued on it,
        is discarded wholesale (respawn or quarantine)."""
        conn, proc = self.conn, self.proc
        self.conn = self.proc = None
        if conn is not None:
            conn.close()
        if proc is not None:
            _reap(proc)


def _start(channel: AgentChannel, init: tuple) -> AgentChannel:
    """Start every agent, forked or ``hosts``: send ``("init", init)``; the
    channel's first :meth:`~AgentChannel.receive` checks the ``("ready",
    incarnation)`` reply, within ``_CONNECT_TIMEOUT_S`` of now.  An init that
    does not pickle is a ``TypeError`` naming what failed; the channel is
    closed before anything is raised."""
    try:
        channel.post(("init", init))
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        channel.close()
        raise TypeError(
            f"partition {channel.partition}'s agent cannot start: its init message does "
            f"not pickle ({exc}); the computation and the instance sources must be "
            "instances of module-level classes"
        ) from exc
    except BaseException:
        channel.close()
        raise
    channel.ready = (init[-1], time.monotonic() + _CONNECT_TIMEOUT_S)
    return channel


def fork(partition: int, init: tuple) -> AgentChannel:
    """Fork ``partition``'s agent on a socketpair and start it from ``init``."""
    conn, child = (_SocketConn(s) for s in socket.socketpair())
    try:
        proc = _FORK_CONTEXT.Process(target=_serve_session, args=(child,), daemon=True)
        proc.start()
    except BaseException:
        conn.close()
        raise
    finally:
        child.close()  # the agent holds its own copy
    return _start(AgentChannel(conn, proc, partition), init)


def connect(address: tuple[str, int], partition: int, init: tuple) -> AgentChannel:
    """Connect to the agent at ``address`` and start it from ``init``.

    Connecting retries until ``_CONNECT_TIMEOUT_S`` is spent, each attempt
    bounded by what is left of the deadline, so a black-holed address costs
    ``_CONNECT_TIMEOUT_S``, not the kernel's SYN timeout; the ready reply
    gets the same bound.
    """
    deadline = time.monotonic() + _CONNECT_TIMEOUT_S
    while True:
        try:
            sock = socket.create_connection(
                address, timeout=max(deadline - time.monotonic(), 1e-3)
            )
            break
        except OSError as exc:  # refused, unreachable, timed out, ...
            left = deadline - time.monotonic()
            if left <= 0:
                raise WorkerLost(
                    f"partition {partition} worker at {address[0]}:{address[1]} is "
                    f"unreachable ({exc!r})",
                    partition=partition,
                ) from exc
            time.sleep(min(0.05, left))
    sock.settimeout(None)  # the connect bound must not time reads out
    return _start(AgentChannel(_SocketConn(sock), None, partition), init)


def stop(channels: Sequence[AgentChannel], *, force: bool = False, tracer=None) -> None:
    """Reap every agent of ``channels``; never hangs, never leaks.

    The polite path (``force=False``) offers each agent a ``stop`` command
    and briefly waits for its ack (a failed ack read is a
    ``teardown_error`` event on ``tracer``); the forced path skips straight
    to closing connections.  Either way every process is joined with a
    bounded timeout, then terminated, then killed — a wedged or desynced
    agent cannot stall shutdown.  Closed (quarantined) channels are skipped.
    """
    live = [c for c in channels if c.conn is not None]
    if not force:
        for c in live:
            try:
                # Agents honor "stop" regardless of sequence number.
                _send_oob(c.conn, (1 << 30, "stop", False, -1, -1, None))
            except OSError:
                pass
        for c in live:
            try:
                # Loose ack read: stale cached replies may precede it.
                _recv_oob(c.conn, deadline=time.monotonic() + 1.0, what="stop ack")
            except (WorkerError, EOFError, ConnectionError, OSError) as exc:
                # Expected during shutdown (agent already gone, timed out, or
                # a stale corrupt frame) — but surface it in the event stream
                # instead of losing it entirely.
                if tracer is not None:
                    tracer.event(
                        "teardown_error",
                        partition=c.partition,
                        where="stop_ack",
                        error=f"{type(exc).__name__}: {exc}",
                    )
    procs = [c.proc for c in live if c.proc is not None]
    for c in live:
        c.conn.close()
        c.conn = c.proc = None
    if force:
        # Don't wait for agents to notice the closed sockets: forked
        # siblings inherit each other's socket fds, so an agent blocked in
        # recv may never see EOF until the others die.  Forced teardown
        # means their state is already forfeit — SIGTERM them up front.
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0 if force else 5.0)  # grace to exit on its own
        _reap(proc)


def _reap(proc) -> None:
    """The reap ladder: terminate → join → kill → join, each bounded."""
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():  # pragma: no cover - terminate refused
        proc.kill()
        proc.join(timeout=1.0)
