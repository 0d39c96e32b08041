"""Span tracer: monotonic-clock spans, instant events, and counters.

One :class:`Tracer` per execution track — the driver gets one, every host
(= partition) gets one, whether it lives in the driver process, on a pool
thread, or in a worker process.  Tracks are identified by a logical ``pid``
(0 is the driver, partition *p* maps to ``p + 1``); within a track, spans
nest by time containment, which is exactly how the Chrome trace viewer and
Perfetto render them.

Timestamps come from :func:`time.perf_counter_ns`, which reads
``CLOCK_MONOTONIC`` — a single system-wide timebase shared by threads *and*
forked worker processes, so tracks recorded in different processes line up
on one timeline without any clock translation.

On a host the disabled path is the **absence of a tracer** (``tracer is
None``), not a null object: instrumented hot paths guard with one identity
check and allocate nothing.  The driver does not guard at all: the engine
and the supervisor state their facts to a
:class:`~repro.observability.recorder.RunRecorder`, the one place that
knows whether a trace is attached, and its ``span`` hands back
:data:`NULL_SPAN` — a shared, stateless, reusable no-op context manager —
when none is.
"""

from __future__ import annotations

import time
from typing import Any, NamedTuple

from .._value import Value

__all__ = [
    "DRIVER_PID",
    "NULL_SPAN",
    "Span",
    "TracePacket",
    "Tracer",
    "partition_pid",
    "trace_clock_ns",
]

#: Logical track id of the driver (engine) tracer.
DRIVER_PID = 0

trace_clock_ns = time.perf_counter_ns


def partition_pid(partition_id: int) -> int:
    """Logical track id for one partition's host (driver is track 0)."""
    return int(partition_id) + 1


class _NullSpan:
    """Reusable no-op context manager: the disabled tracer's span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: Shared no-op span: what ``RunRecorder.span`` returns on an untraced run.
NULL_SPAN = _NullSpan()


class Span(NamedTuple):
    """One completed span on one track (Chrome trace "X" event).

    A NamedTuple rather than a dataclass: spans are constructed on the
    superstep hot path (every compute/send_flush), and tuple construction
    is measurably cheaper than frozen-dataclass ``__init__``; they also
    pickle smaller inside :class:`TracePacket` protocol replies.
    """

    name: str
    ts_ns: int  #: start, perf_counter_ns
    dur_ns: int
    args: dict[str, Any] | None = None


class _SpanHandle:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any] | None) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        self._start_ns = trace_clock_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = trace_clock_ns()
        self._tracer.spans.append(
            Span(self._name, self._start_ns, end - self._start_ns, self._args)
        )
        return False


class TracePacket(Value):
    """One drain's worth of telemetry, marshalled from a host to the driver.

    Picklable by construction (strings, ints, dicts, :class:`Span` tuples),
    so it rides in a protocol reply across the process cluster's sockets
    unchanged.
    """

    __slots__ = ("pid", "label", "spans", "events", "counters")

    def __init__(
        self, pid: int, label: str, spans: list[Span] | None = None,
        events: list[dict[str, Any]] | None = None,
        counters: dict[str, int | float] | None = None,
    ) -> None:
        self.pid, self.label = pid, label
        self.spans = [] if spans is None else spans
        self.events = [] if events is None else events
        self.counters = {} if counters is None else counters


class Tracer:
    """Records spans, instant events, and counters for one track.

    Not thread-safe by design: each concurrent execution context (driver,
    host) owns its own tracer, and the driver merges drained packets under
    its own lock (see :class:`~repro.observability.runtrace.RunTrace`).
    """

    __slots__ = ("pid", "label", "spans", "events", "counters")

    def __init__(self, pid: int = DRIVER_PID, label: str = "driver") -> None:
        self.pid = int(pid)
        self.label = label
        self.spans: list[Span] = []
        self.events: list[dict[str, Any]] = []
        self.counters: dict[str, int | float] = {}

    def span(self, name: str, **args: Any) -> _SpanHandle:
        """Open a span: ``with tracer.span("superstep", t=3, s=0): ...``."""
        return _SpanHandle(self, name, args or None)

    def event(self, kind: str, **fields: Any) -> None:
        """Record one instant event (a structured event-log record)."""
        fields["kind"] = kind
        fields["ts_ns"] = trace_clock_ns()
        fields["pid"] = self.pid
        self.events.append(fields)

    def count(self, name: str, value: int | float = 1) -> None:
        """Bump a named counter (merged across tracks at absorb time)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def drain(self) -> TracePacket | None:
        """Detach everything recorded so far as a packet (None when empty)."""
        if not (self.spans or self.events or self.counters):
            return None
        packet = TracePacket(self.pid, self.label, self.spans, self.events, self.counters)
        self.spans, self.events, self.counters = [], [], {}
        return packet
