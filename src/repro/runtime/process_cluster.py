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
stream, written with one ``sendmsg``.  The protocol is the one of
:class:`~repro.runtime.cluster.LocalCluster`: commands are broadcast, then
results gathered (a scatter/gather round per superstep, which *is* the BSP
barrier).

Everything crossing a connection is pickled with **protocol 5 and
out-of-band buffers**: a :class:`~repro.core.messages.MessageFrame`'s
destination array and any numpy payloads travel as raw buffers after the
pickle body instead of being copied into it — the bulk-transfer idiom from
the mpi4py guides.  Computations, instance sources and message payloads
must be picklable (module-level classes and numpy arrays).

Wire protocol
-------------
Every command is an envelope ``(seq, op, replay, timestep, superstep,
payload)`` — a sequence number, the replay mark and the round exactly as
the journal holds it (:class:`~repro.resilience.journal.JournalEntry`) —
and every reply ``(seq, incarnation, payload)``.  ``op`` is a key of
:data:`~repro.runtime.host.HOST_OPS`, executed by
:meth:`~repro.runtime.host.ComputeHost.handle`; for the four
:data:`~repro.runtime.host.ROUND_OPS`, ``(timestep, superstep)`` is also
the coordinate scripted faults fire at — the one the driver issued, never
re-derived from the op.  Sequence numbers are per-partition and assigned by
the driver; each agent remembers the last sequence it executed and its
reply, so a **resent command is answered from the reply cache
without re-executing** — the idempotent-resend property that lets the
driver cure wire-level faults (a dropped, duplicated, reordered, or
corrupted reply frame) by simply sending the same command again.  On the
receive side the driver skips replies whose sequence is stale (counted as
``duplicate_replies_dropped``) and accepts exactly the one it is waiting
for, so delivery into the engine is exactly-once even when the wire is not.
``replay`` marks journal replay on a surgically recovered agent: fault
checks are skipped and instance loads leave no fresh evidence.

Failure semantics
-----------------
An agent can genuinely die (crash, injected ``kill``), straggle (injected
``delay``), or misbehave on the wire (the injected ``drop_frame`` /
``dup_frame`` / ``reorder`` / ``corrupt_frame`` of one reply).  An injected
``kill`` closes the session: a forked agent then returns and its process
exits, a ``hosts`` agent goes back to ``accept``; either way the driver
reads EOF.  The driver classifies what it observes into the resilience
taxonomy:

* :class:`WorkerLost` — EOF / send failure / corrupt reply stream.
  The session is unusable; recovery must respawn (fork a new agent, or
  reconnect to the same ``hosts`` address at a higher incarnation).
* :class:`GatherTimeout` — the agent is alive but did not reply within
  ``gather_timeout_s``.  Raised only when a timeout is configured; without
  one a wedged agent blocks the barrier forever (the pre-resilience
  behavior, preserved by default).  With a ``retry_policy`` the driver
  first resends the command (bounded attempts with backoff, a fresh
  timeout window each) before declaring the round failed.
* :class:`RecoverableWorkerError` — the agent itself reported an error it
  marked *recoverable* (an injected infrastructure fault such as a failed
  slice load).  Its session is still healthy.
* :class:`WorkerError` — the agent reported a deterministic application
  error (the user's ``compute`` raised).  Retrying cannot help; recovery
  must not mask it.

The first three subclass both :class:`WorkerError` (so existing callers
that catch it keep working) and
:class:`~repro.resilience.recovery.RecoverableError` (so the engine's
recovery loop knows a retry is worthwhile).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import select
import socket
import struct
import time
from typing import Any, Sequence

from ..core.computation import TimeSeriesComputation
from ..partition.base import PartitionedGraph
from ..resilience.faults import FaultPlan
from ..resilience.recovery import InjectedFault, RecoverableError
from .cluster import Cluster, quarantine_fill
from .cost import CostModel
from .host import ROUND_OPS, HostSpec, HostStepResult, InstanceSource, RunMeta, host_op

__all__ = [
    "GatherTimeout",
    "ProcessCluster",
    "RecoverableWorkerError",
    "WorkerError",
    "WorkerLost",
    "parse_hosts",
    "serve_worker",
]


class WorkerError(RuntimeError):
    """Raised in the driver when a worker process's command failed."""


class WorkerLost(WorkerError, RecoverableError):
    """A worker process died or its reply stream broke mid-round."""


class GatherTimeout(WorkerError, RecoverableError):
    """A live worker failed to reply within the configured gather timeout."""


class RecoverableWorkerError(WorkerError, RecoverableError):
    """A worker reported an error it marked recoverable (injected infra fault)."""


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


def _serve_commands(conn, host, fault_plan, incarnation) -> str:
    """Serve engine commands on ``conn`` until ``stop``, ``kill``, or EOF.

    Commands arrive as ``(seq, op, replay, timestep, superstep, payload)``
    envelopes; replies go back as ``(seq, incarnation, payload)``.  The
    agent executes strictly increasing sequence numbers: a command whose
    ``seq`` equals the last executed one is a driver resend and is answered
    from the one-deep reply cache *without re-executing* — that idempotence
    is what makes the driver's retry protocol safe.  Anything older is
    discarded.

    Failures while executing a command ship back a
    ``("error", traceback_text, recoverable)`` payload — ``recoverable`` is
    True when the exception carries the :class:`RecoverableError` marker
    (an injected infrastructure fault), False for deterministic application
    errors — so the driver can re-raise with context instead of dying on a
    broken connection.

    When ``fault_plan`` is set, each round's ``(timestep, superstep)`` is
    checked against the plan under this session's ``incarnation`` (skipped
    for ``replay`` commands — a journal replay must not re-trip scripted
    faults).  ``kill`` closes the session, ``fail_load`` raises
    :class:`InjectedFault` (a recoverable error reply), and the rest act on
    the reply *after* the round computed and its envelope was cached:
    ``delay`` sleeps first, ``drop_frame`` swallows it, ``corrupt_frame``
    sends garbage wire bytes instead, ``dup_frame`` sends it twice, and
    ``reorder`` re-sends the previous round's envelope ahead of it.

    Returns ``"stopped"`` on a polite stop, ``"killed"`` on an injected
    kill, ``"eof"`` when the driver went away, and ``"bad-command"`` on a
    corrupt frame or an envelope of the wrong shape: the stream can no
    longer be trusted, so the session ends (the caller closes ``conn``; the
    driver sees EOF and respawns) rather than the error taking a long-lived
    agent down with it.
    """
    import traceback

    pid = host.partition.partition_id
    last_seq = -1
    cached = None  # envelope of the last executed command (resend answers)
    previous = None  # envelope before that (the ``reorder`` fault's stale frame)
    try:
        while True:
            try:
                seq, op, replay, timestep, superstep, payload = _recv_oob(conn)
                seq = int(seq)
            except (WorkerError, TypeError, ValueError):
                return "bad-command"
            if op == "stop":
                _send_oob(conn, (seq, incarnation, None))
                return "stopped"
            if seq <= last_seq:
                # Driver resend of already-executed work: answer from the
                # cache, never re-execute (idempotent resend).
                if seq == last_seq and cached is not None:
                    _send_oob(conn, cached)
                continue
            post_fault = None
            try:
                if fault_plan is not None and op in ROUND_OPS and not replay:
                    spec = fault_plan.fire(timestep, superstep, pid, incarnation)
                    if spec is not None:
                        if spec.kind == "kill":
                            conn.close()
                            return "killed"
                        elif spec.kind == "fail_load":
                            raise InjectedFault(
                                f"injected slice-load failure at timestep {timestep} "
                                f"partition {pid}",
                                partition=pid,
                            )
                        else:  # wire faults act on the reply, post-compute
                            post_fault = spec
                reply = host.handle(op, timestep, superstep, payload, replay=replay)
            except Exception as exc:
                recoverable = isinstance(exc, RecoverableError)
                reply = ("error", traceback.format_exc(), recoverable)
                post_fault = None  # error replies ship plainly
            envelope = (seq, incarnation, reply)
            # Cache before any wire misbehavior: a resend must find the
            # computed reply even when this send drops or corrupts.
            previous, cached = cached, envelope
            last_seq = seq
            if post_fault is None:
                _send_oob(conn, envelope)
            elif post_fault.kind == "delay":
                time.sleep(fault_plan.delay_for(post_fault))
                _send_oob(conn, envelope)
            elif post_fault.kind == "drop_frame":
                pass  # swallow the reply; the driver's gather times out
            elif post_fault.kind == "corrupt_frame":
                conn.send_bytes(_CORRUPT_WIRE_BYTES)
            elif post_fault.kind == "dup_frame":
                _send_oob(conn, envelope)
                _send_oob(conn, envelope)
            elif post_fault.kind == "reorder":
                if previous is not None:
                    _send_oob(conn, previous)
                _send_oob(conn, envelope)
    except (EOFError, ConnectionError, OSError):  # driver died / connection severed
        return "eof"


def _serve_session(conn, init: tuple | None = None) -> str:
    """Serve one driver session on ``conn``: build the host, serve commands,
    close the source and the connection.

    ``init`` is :meth:`ProcessCluster._init_args` — ``(spec, partition,
    source, sg_part, fault_plan, incarnation)``.  A forked agent inherits
    it; a ``hosts`` agent (``init=None``) reads it from the driver's
    ``("init", init)`` handshake and answers ``("ready", incarnation)``.

    When ``spec.tracing`` is set the host gets its own tracer; spans recorded
    in the agent ride back to the driver as ``HostStepResult.telemetry`` on
    ordinary replies.  ``time.perf_counter_ns`` is CLOCK_MONOTONIC — one
    system-wide timebase shared with a driver on the same machine — so span
    timestamps need no clock translation.

    Returns :func:`_serve_commands`' disposition, or ``"bad-init"`` when the
    handshake is corrupt or does not destructure (another version's driver,
    say): either way only this session ends, never the agent.
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
        host = spec.build(partition, source, sg_part)
        if handshake:
            try:
                _send_oob(conn, ("ready", incarnation))
            except OSError:
                return "eof"
        return _serve_commands(conn, host, fault_plan, incarnation)
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


class _RemoteWorkerHandle:
    """Process-shaped stand-in for a ``hosts`` agent somebody else started.

    The driver cannot see a remote agent's process, so liveness questions
    are answered optimistically: ``is_alive`` is True (a truly dead peer
    surfaces as EOF on its connection → :class:`WorkerLost`), and
    terminate/kill/join are no-ops — the agent's lifecycle belongs to
    whoever started it.  Keeping ``is_alive`` True routes gather timeouts
    into the protocol-retry path (resend → reply cache) instead of an
    immediate respawn, exactly like a live-but-slow forked agent.
    """

    exitcode = None

    def is_alive(self) -> bool:
        return True

    def terminate(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def join(self, timeout: float | None = None) -> None:
        pass


class ProcessCluster(Cluster):
    """One worker agent per partition, each driven over one socket.

    Parameters mirror :class:`~repro.runtime.cluster.LocalCluster`, except
    instance ``sources`` are mandatory: each agent must be able to produce
    its instances *inside its own process* (a lazy generator-backed source or
    a GoFS view — not a pre-materialized shared list, which would defeat the
    isolation).  ``hosts`` (``"host:port,..."`` or a sequence, one per
    partition) names agents somebody started; ``None`` forks them here.

    ``gather_timeout_s`` bounds every driver-side read in a
    scatter/gather round; ``None`` (the default) preserves the original
    block-forever behavior.  A timeout is required for ``drop_frame``
    fault runs to make progress — the engine supplies one automatically
    when recovery is enabled.  ``fault_plan`` is shipped to every agent
    (spent-fault bookkeeping stays per-session; the incarnation guard is
    what keeps faults from re-firing after a respawn).

    ``retry_policy`` (a :class:`~repro.resilience.recovery.RecoveryPolicy`)
    arms the **protocol retry loop**: a gather timeout or corrupt reply
    from a still-alive agent is retried by resending the same
    sequence-numbered command (the agent answers from its reply cache)
    with the policy's backoff, up to ``max_retries`` times, before the
    failure surfaces.  Cured incidents are recorded and drained via
    :meth:`drain_protocol_incidents`.  ``None`` (the default: a run
    without recovery) surfaces the first failure unretried.

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
        if gather_timeout_s is not None and gather_timeout_s <= 0:
            raise ValueError("gather_timeout_s must be positive (or None to disable)")
        self._hosts = None if hosts is None else parse_hosts(hosts)
        if self._hosts is not None and len(self._hosts) != pg.num_partitions:
            raise ValueError(
                f"need exactly one worker address per partition "
                f"({len(self._hosts)} given, {pg.num_partitions} partitions)"
            )
        spec = HostSpec(computation, meta, cost_model or CostModel(), use_combiners, tracing)
        super().__init__(pg, spec, sources, fault_plan)
        self.gather_timeout_s = gather_timeout_s
        self.retry_policy = retry_policy
        #: Next command sequence number, per partition (reset on respawn).
        self._seqs = [0] * pg.num_partitions
        #: Last posted command per partition — what a protocol retry resends.
        self._inflight: list[Any] = [None] * pg.num_partitions
        self._stats = {
            "commands_sent": 0,
            "resends": 0,
            "protocol_retries": 0,
            "duplicate_replies_dropped": 0,
        }
        self._incidents: list[tuple[str, int, float]] = []
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        self._spawn_workers()

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

    def _spawn_one(self, p: int) -> tuple[_SocketConn, Any]:
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
            return conn, proc
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
        return conn, _RemoteWorkerHandle()

    def _spawn_workers(self) -> None:
        """Start one worker per partition at the current incarnation.

        If any step fails (fork, connect, handshake), tear down the
        workers already started instead of leaking daemon processes that
        outlive the failed constructor.
        """
        assert not self._conns and not self._procs
        try:
            for p in range(self.num_partitions):
                parent, proc = self._spawn_one(p)
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self._teardown(force=True)
            raise

    # -- sequenced scatter/gather -----------------------------------------------------

    def _post(
        self, p: int, op: str, replay: bool, timestep: int, superstep: int, payload
    ) -> None:
        """Send one sequence-numbered command to partition ``p``'s worker."""
        host_op(op)  # an unknown op fails here, before anything is sent
        seq = self._seqs[p]
        self._seqs[p] += 1
        cmd = (seq, op, replay, timestep, superstep, payload)
        self._inflight[p] = cmd
        self._stats["commands_sent"] += 1
        try:
            _send_oob(self._conns[p], cmd)
        except OSError as exc:
            raise WorkerLost(
                f"partition {p} worker is gone (send failed: {exc!r})", partition=p
            ) from exc

    def _recv_reply(self, p: int, want_seq: int, deadline: float | None) -> Any:
        """Receive exactly reply ``want_seq`` from ``p``, deduplicating.

        Stale frames — duplicates from a ``dup_frame`` fault, re-deliveries
        from ``reorder``, cached answers to a resend that crossed the real
        reply in flight, or replies from a torn-down incarnation — are
        counted and skipped, so the engine observes exactly-once delivery.
        """
        conn = self._conns[p]
        while True:
            reply = _recv_oob(conn, deadline=deadline, what=f"partition {p} reply")
            if not (isinstance(reply, tuple) and len(reply) == 3):
                raise WorkerError(
                    f"partition {p} sent an unframed reply ({type(reply).__name__})"
                )
            seq, inc, payload = reply
            if seq < want_seq or inc < self.incarnations[p]:
                self._stats["duplicate_replies_dropped"] += 1
                continue
            if seq > want_seq:
                raise WorkerLost(
                    f"partition {p} reply stream desynced (got seq {seq}, want {want_seq})",
                    partition=p,
                )
            return payload

    def _collect(self, p: int, deadline: float | None = None) -> Any:
        """Gather partition ``p``'s in-flight reply, curing wire faults.

        ``deadline`` is the *round* deadline: :meth:`run_round` starts
        one clock before gathering any partition, so a round's worst-case
        wait is ``gather_timeout_s`` total, not ``N_partitions ×
        gather_timeout_s``.  When ``None`` (single-partition paths such as
        :meth:`step_one`), this attempt opens its own window.

        Without a ``retry_policy``, first failure raises.  With one: a
        gather timeout or corrupt reply from a still-alive worker triggers
        an idempotent resend of the same command — a fresh timeout window
        and the policy's backoff per attempt — until the reply lands or
        the budget is spent.  A dead worker always surfaces immediately as
        :class:`WorkerLost`.
        """
        policy = self.retry_policy
        attempts = 0
        incident_kind: str | None = None
        incident_start = 0.0
        want_seq = self._seqs[p] - 1
        while True:
            if attempts or deadline is None:
                # Retries (and callers that passed no round deadline) get a
                # fresh per-attempt window.
                deadline = (
                    None
                    if self.gather_timeout_s is None
                    else time.monotonic() + self.gather_timeout_s
                )
            try:
                payload = self._recv_reply(p, want_seq, deadline)
            except GatherTimeout as exc:
                if not self._procs[p].is_alive():  # pragma: no cover - EOF races ahead
                    raise WorkerLost(
                        f"partition {p} worker died mid-round (exit code "
                        f"{self._procs[p].exitcode})",
                        partition=p,
                    ) from exc
                err: WorkerError = GatherTimeout(
                    f"partition {p} did not reply within {self.gather_timeout_s:g}s",
                    partition=p,
                )
                err.__cause__ = exc
                kind = "GatherTimeout"
            except (EOFError, ConnectionError, OSError) as exc:
                raise WorkerLost(
                    f"partition {p} worker died mid-round ({exc!r})", partition=p
                ) from exc
            except WorkerLost:
                raise
            except WorkerError as exc:
                # Corrupt reply frame.  Frames are length-prefixed, so the
                # stream stays frame-aligned past the bad message: with a
                # retry policy a resend can still fetch the cached reply.
                if not self._procs[p].is_alive():
                    raise WorkerLost(
                        f"partition {p} reply stream is corrupt: {exc}", partition=p
                    ) from exc
                err = WorkerLost(f"partition {p} reply stream is corrupt: {exc}", partition=p)
                err.__cause__ = exc
                kind = "WorkerError"
            else:
                if attempts:
                    self._stats["protocol_retries"] += 1
                    self._incidents.append(
                        (incident_kind or "GatherTimeout", p, time.monotonic() - incident_start)
                    )
                return payload
            if policy is None or attempts >= policy.max_retries:
                raise err
            if incident_kind is None:
                incident_kind = kind
                incident_start = time.monotonic()
            attempts += 1
            self._stats["resends"] += 1
            backoff = policy.backoff_for(attempts)
            if backoff > 0:
                time.sleep(backoff)
            try:
                _send_oob(self._conns[p], self._inflight[p])
            except OSError as exc:
                raise WorkerLost(
                    f"partition {p} worker is gone (resend failed: {exc!r})", partition=p
                ) from exc

    def _unwrap(self, p: int, payload: Any) -> Any:
        """Re-raise worker-reported errors with driver-side context."""
        if isinstance(payload, tuple) and len(payload) >= 2 and payload[0] == "error":
            message = f"partition {p} worker failed:\n{payload[1]}"
            if len(payload) >= 3 and payload[2]:
                raise RecoverableWorkerError(message, partition=p)
            raise WorkerError(message)
        return payload

    def run_round(
        self, op: str, timestep: int, superstep: int, payloads: Sequence | None
    ) -> list[Any]:
        """One scatter/gather round across every non-quarantined worker.

        Each partition's :class:`RecoverableError` is recorded in its
        outcome slot instead of raised, so survivors finish their round;
        deterministic application errors always raise.  Quarantined
        partitions' outcomes are synthesized.
        """
        tr = self.driver_tracer
        outcomes: list[Any] = [None] * self.num_partitions
        pending: list[int] = []

        def scatter() -> None:
            for p in range(self.num_partitions):
                if p in self.quarantined:
                    outcomes[p] = quarantine_fill(op, p)
                    continue
                payload = None if payloads is None else payloads[p]
                try:
                    self._post(p, op, False, timestep, superstep, payload)
                except WorkerLost as exc:
                    outcomes[p] = exc
                    continue
                pending.append(p)

        def gather() -> None:
            # One clock start for the whole round: partitions compute
            # concurrently, so the round's first-attempt wait is bounded by
            # a single gather_timeout_s, not N_partitions × timeout.
            deadline = (
                None
                if self.gather_timeout_s is None
                else time.monotonic() + self.gather_timeout_s
            )
            for p in pending:
                try:
                    outcomes[p] = self._unwrap(p, self._collect(p, deadline))
                except RecoverableError as exc:
                    outcomes[p] = exc

        if tr is None:
            scatter()
            gather()
        else:
            # Driver-side view of the scatter/gather round: the ship span
            # covers pickling + socket writes, the barrier span the gather
            # (the BSP synchronisation point).
            with tr.span("ship"):
                scatter()
            with tr.span("barrier"):
                gather()
        return outcomes

    # -- surgical protocol ------------------------------------------------------------

    def step_one(
        self,
        partition: int,
        op: str,
        timestep: int,
        superstep: int,
        payload,
        *,
        replay: bool = False,
    ) -> HostStepResult:
        self._post(partition, op, replay, timestep, superstep, payload)
        return self._unwrap(partition, self._collect(partition))

    def respawn_worker(self, partition: int) -> int:
        """Replace one dead/wedged worker with a fresh incarnation.

        Its connection (and any garbage queued on it) is discarded
        wholesale, so the new session starts with a clean, trusted stream;
        sequence numbers restart at 0 for the new connection.
        """
        self._teardown_one(partition)
        self.incarnations[partition] += 1
        self._seqs[partition] = 0
        self._inflight[partition] = None
        conn, proc = self._spawn_one(partition)
        self._conns[partition] = conn
        self._procs[partition] = proc
        return self.incarnations[partition]

    def quarantine(self, partition: int) -> None:
        self.quarantined.add(partition)
        self._teardown_one(partition)

    def drain_protocol_incidents(self) -> list[tuple[str, int, float]]:
        incidents, self._incidents = self._incidents, []
        return incidents

    def protocol_stats(self) -> dict:
        return dict(self._stats)

    # -- lifecycle --------------------------------------------------------------------

    def _teardown(self, *, force: bool = False) -> None:
        """Reap every worker; never hangs, never leaks.

        The polite path (``force=False``) offers each worker a ``stop``
        command and briefly waits for its ack; the forced path skips
        straight to closing connections.  Either way every process is joined with
        a bounded timeout, then terminated, then killed — a wedged or
        desynced worker cannot stall shutdown.
        """
        conns, procs = self._conns, self._procs
        self._conns, self._procs = [], []
        # Quarantined partitions hold None placeholders (already reaped).
        indexed_conns = [(p, c) for p, c in enumerate(conns) if c is not None]
        conns = [c for _, c in indexed_conns]
        procs = [pr for pr in procs if pr is not None]
        if not force:
            for _, conn in indexed_conns:
                try:
                    # Workers honor "stop" regardless of sequence number.
                    _send_oob(conn, (1 << 30, "stop", False, -1, -1, None))
                except OSError:
                    pass
            for p, conn in indexed_conns:
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
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
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

    def _teardown_one(self, partition: int) -> None:
        """Reap one worker (respawn or quarantine), leaving a None slot."""
        conn = self._conns[partition]
        proc = self._procs[partition]
        self._conns[partition] = None
        self._procs[partition] = None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if proc is not None:
            self._reap(proc)

    def shutdown(self) -> None:
        self._teardown()
        # The driver-side source templates are the caller's objects; if any
        # were used directly before the run they may hold prefetch threads.
        super().shutdown()
