"""Driver-side trace collector for one engine run.

The engine owns one :class:`RunTrace` per traced run: it holds the driver's
own :class:`~repro.observability.tracer.Tracer`, absorbs the
:class:`~repro.observability.tracer.TracePacket` objects that hosts attach
to their protocol replies, merges every track's counters into one
registry, and renders the run artifacts:

* ``trace.json`` — Chrome trace-event JSON (Perfetto-ready);
* ``events.jsonl`` — the schema-versioned structured event log;
* ``manifest.json`` — provenance + config + counters + schema versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .chrome import chrome_trace, write_chrome_trace
from .events import BufferedEventLogWriter, normalize_event, write_event_log
from .tracer import DRIVER_PID, Span, TracePacket, Tracer, trace_clock_ns

__all__ = ["RunTrace", "TraceConfig"]


@dataclass(frozen=True)
class TraceConfig:
    """Tracing knobs for :class:`~repro.core.engine.EngineConfig`.

    Attributes
    ----------
    stream_dir:
        When set, the engine streams the structured event log to
        ``<stream_dir>/events.jsonl`` *during* the run through a
        :class:`~repro.observability.events.BufferedEventLogWriter`,
        flushing as each round lands — so ``tibsp top`` can fold it while
        the run goes, and a killed run still leaves a valid, replayable
        JSONL of everything up to its last flush.
    """

    stream_dir: str | None = None


class RunTrace:
    """Everything one traced run recorded, across all tracks."""

    def __init__(self) -> None:
        #: Trace epoch: all exported timestamps are relative to this instant.
        self.epoch_ns: int = trace_clock_ns()
        self.tracer = Tracer(DRIVER_PID, "driver")
        #: ``(pid, Span)`` pairs across all tracks, in absorb order.
        self.spans: list[tuple[int, Span]] = []
        #: Raw tracer events (still carrying ``ts_ns``), in absorb order.
        self.events: list[dict[str, Any]] = []
        #: Merged counter registry across all tracks.
        self.counters: dict[str, int | float] = {}
        self.track_labels: dict[int, str] = {DRIVER_PID: "driver"}
        self._stream: BufferedEventLogWriter | None = None
        #: Where the event log was streamed, when it was.
        self.stream_path: Path | None = None
        self._streamed = 0  #: prefix of ``self.events`` already streamed out

    # -- collection --------------------------------------------------------------------

    def absorb(self, packet: TracePacket) -> None:
        """Merge one drained packet (host telemetry) into the run."""
        self.track_labels.setdefault(packet.pid, packet.label)
        self.spans.extend((packet.pid, span) for span in packet.spans)
        self.events.extend(packet.events)
        for name, value in packet.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def absorb_results(self, results: Iterable[Any]) -> None:
        """Absorb the telemetry riding on a batch of host protocol replies."""
        for r in results:
            packet = getattr(r, "telemetry", None)
            if packet is not None:
                self.absorb(packet)
                r.telemetry = None

    def finish(self) -> None:
        """Fold the driver tracer's own recordings into the run."""
        packet = self.tracer.drain()
        if packet is not None:
            self.absorb(packet)

    # -- streaming ---------------------------------------------------------------------

    def open_stream(self, out_dir: str | Path) -> Path:
        """Start streaming the event log to ``<out_dir>/events.jsonl``."""
        self.stream_path = Path(out_dir) / "events.jsonl"
        self._stream = BufferedEventLogWriter(self.stream_path)
        return self.stream_path

    def stream_flush(self) -> None:
        """Stream every not-yet-streamed event; commit with one write+flush.

        Called at flush points (every round, teardown).  The driver
        tracer is drained first so its events enter the stream too.  Each
        batch is sorted by timestamp before writing; hosts drain at every
        protocol reply and the driver drains at every flush, so no event
        recorded before a flush can be absorbed after it — per-batch
        sorting therefore yields a globally sorted file, matching the
        post-hoc ``event_records()`` ordering.
        """
        if self._stream is None:
            return
        self.finish()
        batch = self.events[self._streamed :]
        self._streamed = len(self.events)
        if batch:
            records = sorted(
                (normalize_event(e, self.epoch_ns) for e in batch),
                key=lambda r: r["ts_us"],
            )
            self._stream.write_many(records)
        self._stream.flush()

    def close_stream(self) -> None:
        """Flush the tail and close the streaming writer (idempotent)."""
        if self._stream is None:
            return
        self.stream_flush()
        self._stream.close()
        self._stream = None

    def __enter__(self) -> "RunTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close_stream()
        self.finish()

    # -- export ------------------------------------------------------------------------

    def event_records(self) -> list[dict[str, Any]]:
        """Schema-stamped event-log records, sorted by timestamp."""
        records = [normalize_event(e, self.epoch_ns) for e in self.events]
        records.sort(key=lambda r: r["ts_us"])
        return records

    def chrome_trace(self, metadata: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """The Perfetto-ready trace-event JSON object for this run."""
        return chrome_trace(
            self.spans,
            self.events,
            epoch_ns=self.epoch_ns,
            track_labels=self.track_labels,
            metadata=metadata,
        )

    def write(self, out_dir: str | Path, manifest: Mapping[str, Any] | None = None) -> dict[str, Path]:
        """Write the three run artifacts under ``out_dir``.

        Returns ``{"trace": ..., "events": ..., "manifest": ...}`` paths.
        The manifest gets the merged counters appended under ``counters``.
        A log the run streamed into ``out_dir`` is already complete once
        its stream is closed, and is left as it is: rewriting it would show
        a reader tailing it an empty file.
        """
        self.close_stream()
        self.finish()
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest_payload = dict(manifest or {})
        manifest_payload.setdefault("counters", dict(self.counters))
        trace_path = write_chrome_trace(
            out_dir / "trace.json", self.chrome_trace(metadata={"manifest": "manifest.json"})
        )
        events_path = out_dir / "events.jsonl"
        if self.stream_path is None or self.stream_path.resolve() != events_path.resolve():
            write_event_log(events_path, self.event_records())
        manifest_path = out_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest_payload, indent=2, sort_keys=True, default=str))
        return {"trace": trace_path, "events": events_path, "manifest": manifest_path}
