"""The run's one writer: every fact is stated once, here, and fans out.

The engine and the host supervisor hand their facts to a
:class:`RunRecorder` and never ask which observers are attached.  A typed
record (:mod:`repro.runtime.metrics`) is folded into the run's collector
and appended to the driver's event log when the run is traced.  Facts with
no table behind them (``run_begin``, ``barrier``, ``restore``,
``worker_quarantined``, ...) are plain trace events.  A streamed log is
flushed as each round lands, so a reader tailing it (``tibsp top``) folds
the same records the collector did.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable

from .tracer import NULL_SPAN

if TYPE_CHECKING:  # only a traced run loads the trace plane
    from .runtrace import RunTrace

__all__ = ["RunRecorder"]


class RunRecorder:
    """Fans one run's records out to its collector and trace.

    ``metrics`` is the run's collector (duck-typed ``fold``); ``trace`` is
    None when the run is not traced, and this class is the only place that
    checks.
    """

    def __init__(self, metrics: Any, trace: RunTrace | None = None) -> None:
        self.metrics = metrics
        self.trace = trace

    def emit(self, record: Any) -> None:
        """State one typed record: collector, event log."""
        self.metrics.fold(record)
        if self.trace is not None:
            self.trace.tracer.event(record.kind, **record.as_event())

    def event(self, kind: str, **fields: Any) -> None:
        """State one trace-only fact (no collector table behind it)."""
        if self.trace is not None:
            self.trace.tracer.event(kind, **fields)

    def quarantined(
        self, timestep: int, superstep: int, partition: int, attempt: int, error: str
    ) -> None:
        """A partition was given up on: from here on its replies are synthesized,
        so a reader of the log shows it silent."""
        self.event(
            "worker_quarantined",
            timestep=timestep,
            superstep=superstep,
            partition=partition,
            attempt=attempt,
            error=error,
        )

    def barrier(self, phase: str, timestep: int, superstep: int, started: float) -> None:
        """The driver-measured scatter/gather wall of the round begun at ``started``."""
        if self.trace is not None:
            self.trace.tracer.event(
                "barrier",
                phase=phase,
                timestep=timestep,
                superstep=superstep,
                wall_s=time.perf_counter() - started,
            )

    def span(self, name: str, **args: Any):
        """A driver-track span; the shared no-op span when the run is not traced."""
        if self.trace is not None:
            return self.trace.tracer.span(name, **args)
        return NULL_SPAN

    def flush(self) -> None:
        """A durable point of the streamed event log."""
        if self.trace is not None:
            self.trace.stream_flush()

    def absorb(self, replies: Iterable[Any]) -> None:
        """A round has landed: take its host telemetry packets and flush the
        streamed log, so a reader tailing it sees each round as it lands."""
        if self.trace is not None:
            self.trace.absorb_results(replies)
            self.trace.stream_flush()
