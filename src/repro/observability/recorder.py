"""The run's one writer: every fact is stated once, here, and fans out.

The engine and the host supervisor hand their facts to a
:class:`RunRecorder` and never ask which observers are attached.  A typed
record (:mod:`repro.runtime.metrics`) is folded into the run's collector —
under the live registry's lock when one is attached, so its readers see
whole records — and appended to the driver's event log when the run is
traced.  Facts with no table behind them (``barrier``, ``worker_lost``,
``retry``, ``restore``, ...) are plain trace events.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from .live import LiveMetrics
from .runtrace import RunTrace
from .tracer import NULL_SPAN

__all__ = ["RunRecorder"]


class RunRecorder:
    """Fans one run's records out to its collector, live registry and trace.

    ``metrics`` is the run's collector (duck-typed ``fold``); ``trace`` and
    ``live`` are None when that plane is off, and this class is the only
    place that checks.
    """

    def __init__(
        self, metrics: Any, trace: RunTrace | None = None, live: LiveMetrics | None = None
    ) -> None:
        self.metrics = metrics
        self.trace = trace
        self.live = live

    def restore(self, metrics: Any) -> None:
        """Continue on the collector a ``resume_from`` checkpoint carried."""
        self.metrics = metrics
        if self.live is not None:
            self.live.resync(metrics)

    def emit(self, record: Any) -> None:
        """State one typed record: collector, live series, event log."""
        if self.live is not None:
            self.live.fold(record)
        else:
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
        so the live plane stops counting them as heartbeats."""
        self.event(
            "worker_quarantined",
            timestep=timestep,
            superstep=superstep,
            partition=partition,
            attempt=attempt,
            error=error,
        )
        if self.live is not None:
            self.live.retire(partition)

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
        """A durable point of the streamed event log (a timestep boundary)."""
        if self.trace is not None:
            self.trace.stream_flush()

    def round_begin(self, phase: str, timestep: int, superstep: int) -> None:
        """A scatter/gather round is about to block (arms the live stall watchdog)."""
        if self.live is not None:
            self.live.round_begin(phase, timestep, superstep)

    def absorb(self, replies: Iterable[Any]) -> None:
        """Take a round's host telemetry packets and host-published stats."""
        if self.trace is not None:
            self.trace.absorb_results(replies)
        if self.live is not None:
            self.live.round_end(replies)
