"""Span tracer: one list of records per track — spans, instant events, counters.

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

Everything a tracer records is a record in one list, in the shape of an
event-log line before normalisation (``kind``, absolute ``ts_ns``,
``pid``): a span is recorded when it closes, stamped with its end, and a
drain turns the summed counters into one ``counters`` record.  The run's
log, its Perfetto trace and its counter totals are all folds over these
records (:mod:`~repro.observability.runtrace`).

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
from typing import Any

from .._value import Value

__all__ = [
    "DRIVER_PID",
    "NULL_SPAN",
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


class _SpanHandle:
    """Context manager appending one ``span`` record to its tracer on exit."""

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
        tracer = self._tracer
        tracer.records.append({
            "kind": "span", "ts_ns": end, "pid": tracer.pid, "name": self._name,
            "dur_ns": end - self._start_ns, "args": self._args,
        })
        return False


class TracePacket(Value):
    """One drain's worth of records, marshalled from a host to the driver.

    Picklable by construction (plain dicts of strings and numbers), so it
    rides in a protocol reply across the process cluster's sockets
    unchanged.
    """

    __slots__ = ("pid", "records")

    def __init__(self, pid: int, records: list[dict[str, Any]]) -> None:
        self.pid, self.records = pid, records


class Tracer:
    """Records spans, instant events, and counters for one track.

    Not thread-safe by design: each concurrent execution context (driver,
    host) owns its own tracer, and the driver absorbs drained packets as
    each round lands (see :class:`~repro.observability.runtrace.RunTrace`).
    """

    __slots__ = ("pid", "records", "counters")

    def __init__(self, pid: int = DRIVER_PID) -> None:
        self.pid = int(pid)
        self.records: list[dict[str, Any]] = []
        #: Counter sums since the last drain, which records them as one line.
        self.counters: dict[str, int | float] = {}

    def span(self, name: str, **args: Any) -> _SpanHandle:
        """Open a span: ``with tracer.span("superstep", t=3, s=0): ...``."""
        return _SpanHandle(self, name, args or None)

    def event(self, kind: str, **fields: Any) -> None:
        """Record one instant event (a structured event-log record)."""
        fields["kind"] = kind
        fields["ts_ns"] = trace_clock_ns()
        fields["pid"] = self.pid
        self.records.append(fields)

    def count(self, name: str, value: int | float = 1) -> None:
        """Bump a named counter (recorded as one ``counters`` record at drain)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def drain(self) -> TracePacket | None:
        """Detach everything recorded so far as a packet (None when empty)."""
        if self.counters:
            self.event("counters", values=self.counters)
            self.counters = {}
        if not self.records:
            return None
        packet = TracePacket(self.pid, self.records)
        self.records = []
        return packet
