"""The driver↔agent protocol, written once and free of I/O.

Every executor drives a partition's host through one BSP channel: the
driver posts a command envelope ``(seq, op, replay, timestep, superstep,
payload)`` and gathers one reply envelope ``(seq, incarnation, payload)``.
This module states both halves of that channel as two pure objects, in the
shape h11 gives HTTP: neither touches a socket nor reads a clock, so the
same objects run over a socket (:mod:`repro.runtime.process_cluster`), over
a direct call (:class:`~repro.runtime.cluster.InProcessChannel`), and under
a model checker's adversarial channel.

:class:`Agent` — the host's side.
    ``on_command(envelope)`` executes the command on the host (at most once
    per sequence number: a resend is answered from a one-deep reply cache)
    and returns what goes on the wire, as ``(verb, value)`` pairs: ``SEND``
    an envelope, ``SLEEP`` seconds, ``CORRUPT`` bytes in place of a reply,
    or ``CLOSE`` the session.  Scripted faults decide the list: ``kill``
    closes, ``delay`` sleeps before the reply, ``fail_load`` replies with a
    recoverable error, ``drop_frame`` sends nothing, ``dup_frame`` sends the
    reply twice, ``reorder`` sends the previous reply ahead of it, and
    ``corrupt_frame`` sends garbage.  :func:`answer` also turns an
    application error into an error reply.
:class:`Gather` — the driver's side, for one command.
    Fed what the wire produced (``on_reply``, ``on_timeout``,
    ``on_corrupt``, ``on_eof``), it answers ``(ACCEPT, payload)`` or
    ``(FAIL, error)`` — or ``None`` for a stale frame it dropped.  It owns
    the incarnation guard and the stale-sequence check; it never resends.

The caller owns the I/O and the clock: it sends, waits out the gather
window and turns what it reads into these events.  What a failed exchange
earns — a resend, a repair, or nothing — is the supervisor's one decision
(:mod:`repro.resilience.supervisor`).

Failure taxonomy
----------------
* :class:`WorkerLost` — EOF, a failed send, a desynced reply stream.
  Recovery must respawn the agent.
* :class:`GatherTimeout` — no reply inside the gather window.
* :class:`CorruptReply` — a reply frame that does not decode.  Its length
  prefix was sane, so the next read starts on a frame boundary (a prefix
  past the frame cap is a :class:`WorkerLost`).
* :class:`RecoverableWorkerError` — the host reported an error it marked
  recoverable (an injected slice-load failure, say); its session is healthy.
* :class:`WorkerError` — a deterministic application error reported over the
  wire; retrying cannot help.

All but the last subclass both :class:`WorkerError` and
:class:`~repro.resilience.recovery.RecoverableError`, the marker the
supervisor repairs.
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING, Any

from ..resilience.recovery import InjectedFault, RecoverableError
from .host import ROUND_OPS

if TYPE_CHECKING:  # a run without a fault plan never loads its grammar
    from ..resilience.faults import FaultPlan

__all__ = [
    "ACCEPT", "CLOSE", "CORRUPT", "FAIL", "SEND", "SLEEP", "answer", "Agent", "CorruptReply",
    "Gather", "GatherTimeout", "RecoverableWorkerError", "WorkerError", "WorkerLost",
]


class WorkerError(RuntimeError):
    """Raised in the driver when a worker's command failed."""


class WorkerLost(WorkerError, RecoverableError):
    """A worker died or its reply stream broke mid-round."""


class GatherTimeout(WorkerError, RecoverableError):
    """A live worker failed to reply within the gather timeout."""


class CorruptReply(WorkerError, RecoverableError):
    """A live worker's reply frame did not decode; its length prefix was sane,
    so the stream reads on from the next frame."""


class RecoverableWorkerError(WorkerError, RecoverableError):
    """A worker reported an error it marked recoverable (injected infra fault)."""


# What an agent puts on the wire.
SEND = "send"
SLEEP = "sleep"
CORRUPT = "corrupt"
CLOSE = "close"

# What a gather decides.
ACCEPT = "accept"
FAIL = "fail"


class Agent:
    """One partition's host behind the protocol (see the module docstring).

    ``fault_plan`` is consulted for every round op that is not a journal
    replay, under this session's ``incarnation``; the first armed spec in
    plan order fires.  A host exception marked
    :class:`~repro.resilience.recovery.RecoverableError` becomes a
    recoverable error reply; any other propagates to the caller, which
    raises it in-process or ships it as a plain error reply.
    """

    __slots__ = ("host", "fault_plan", "incarnation", "closed", "_last_seq", "_cached",
                 "_previous")

    def __init__(self, host, fault_plan: FaultPlan | None, incarnation: int) -> None:
        self.host = host
        self.fault_plan = fault_plan or None
        self.incarnation = incarnation
        #: Set once the agent closed its session (an injected ``kill``).
        self.closed = False
        self._last_seq = -1
        self._cached: tuple | None = None  # reply to the last executed command
        self._previous: tuple | None = None  # the one before: ``reorder``'s stale frame

    def on_command(self, command: tuple) -> list[tuple[str, Any]]:
        """Execute ``command`` (at most once) and say what goes on the wire."""
        seq, op, replay, timestep, superstep, payload = command
        if seq <= self._last_seq:
            # A resend of executed work: answer from the cache, never re-execute.
            return [(SEND, self._cached)] if seq == self._last_seq else []
        spec = None
        if self.fault_plan is not None and op in ROUND_OPS and not replay:
            partition = self.host.partition.partition_id
            spec = self.fault_plan.fire(timestep, superstep, partition, self.incarnation)
            if spec is not None and spec.kind == "kill":
                self.closed = True
                return [(CLOSE, None)]
        try:
            if spec is not None and spec.kind == "fail_load":
                raise InjectedFault(
                    f"injected slice-load failure at timestep {timestep} partition {partition}",
                    partition=partition,
                )
            reply = self.host.handle(op, timestep, superstep, payload, replay=replay)
        except RecoverableError:
            reply = ("error", traceback.format_exc(), True)
            spec = None  # an error reply ships plainly
        envelope = (seq, self.incarnation, reply)
        # Cached before any wire misbehaviour: a resend finds the reply even
        # when this send is dropped or corrupted.
        self._previous, self._cached, self._last_seq = self._cached, envelope, seq
        if spec is None:
            return [(SEND, envelope)]
        kind = spec.kind
        if kind == "fail_load":
            return [(SEND, envelope)]
        if kind == "delay":
            return [(SLEEP, spec.delay_s), (SEND, envelope)]
        if kind == "dup_frame":
            return [(SEND, envelope), (SEND, envelope)]
        if kind == "reorder" and self._previous is not None:
            return [(SEND, self._previous), (SEND, envelope)]
        if kind == "corrupt_frame":
            return [(CORRUPT, None)]
        if kind == "drop_frame":
            return []
        return [(SEND, envelope)]  # ``reorder`` with no earlier reply to repeat


def answer(agent: Agent, command: tuple) -> list[tuple[str, Any]]:
    """``agent.on_command(command)``, with a deterministic application error
    sent back as a plain ``("error", traceback_text, False)`` reply: the
    driver raises it as a :class:`WorkerError` carrying the traceback."""
    try:
        return agent.on_command(command)
    except Exception:
        return [(SEND, (command[0], agent.incarnation, ("error", traceback.format_exc(), False)))]


class Gather:
    """The driver's wait for reply ``want_seq`` from one agent incarnation.

    After the exchange ends, :attr:`dropped` counts the stale frames
    skipped.
    """

    __slots__ = ("want_seq", "incarnation", "partition", "dropped")

    def __init__(self, want_seq: int, incarnation: int, partition: int) -> None:
        self.want_seq = want_seq
        self.incarnation = incarnation
        self.partition = partition
        self.dropped = 0

    def on_reply(self, envelope: Any) -> tuple[str, Any] | None:
        """A reply envelope arrived."""
        p = self.partition
        if not (isinstance(envelope, tuple) and len(envelope) == 3):
            return FAIL, WorkerError(
                f"partition {p} sent an unframed reply ({type(envelope).__name__})"
            )
        seq, incarnation, payload = envelope
        if seq < self.want_seq or incarnation < self.incarnation:
            # A duplicate, a re-delivery, a cached answer that crossed the
            # real reply, or a reply from a torn-down incarnation.
            self.dropped += 1
            return None
        if seq > self.want_seq or incarnation > self.incarnation:
            return FAIL, WorkerLost(
                f"partition {p} reply stream desynced (got seq {seq} of incarnation "
                f"{incarnation}, want {self.want_seq} of {self.incarnation})",
                partition=p,
            )
        if isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "error":
            message = f"partition {p} worker failed:\n{payload[1]}"
            if payload[2]:
                return FAIL, RecoverableWorkerError(message, partition=p)
            return FAIL, WorkerError(message)
        return ACCEPT, payload

    def on_timeout(self) -> tuple[str, Any]:
        """The gather window closed with no reply."""
        p = self.partition
        return FAIL, GatherTimeout(f"partition {p} did not reply within the gather timeout",
                                   partition=p)

    def on_corrupt(self, cause: Exception) -> tuple[str, Any]:
        """A frame arrived that does not decode."""
        p = self.partition
        error = CorruptReply(f"partition {p} sent a corrupt reply frame", partition=p)
        error.__cause__ = cause
        return FAIL, error

    def on_eof(self, cause: Exception) -> tuple[str, Any]:
        """The agent's session ended: only a respawn helps."""
        p = self.partition
        error = WorkerLost(f"partition {p} worker died mid-round ({cause!r})", partition=p)
        error.__cause__ = cause
        return FAIL, error
