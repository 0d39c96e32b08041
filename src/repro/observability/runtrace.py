"""Driver-side trace collector for one engine run.

The engine owns one :class:`RunTrace` per traced run: it holds the driver's
own :class:`~repro.observability.tracer.Tracer`, absorbs the
:class:`~repro.observability.tracer.TracePacket` objects that hosts attach
to their protocol replies into one list of records, and renders the run
artifacts from that list:

* ``events.jsonl`` — the schema-versioned structured event log: every
  record, spans and counters included;
* ``trace.json`` — Chrome trace-event JSON (Perfetto-ready), a rendering of
  the log and nothing else;
* ``manifest.json`` — provenance + config + counters + schema versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from .chrome import chrome_trace, write_chrome_trace
from .events import BufferedEventLogWriter, normalize_event, read_event_log
from .tracer import DRIVER_PID, TracePacket, Tracer, trace_clock_ns

__all__ = ["RunTrace", "Span", "TraceConfig"]


class Span(NamedTuple):
    """One completed span on one track, as :attr:`RunTrace.spans` folds it."""

    name: str
    ts_ns: int  #: start, perf_counter_ns
    dur_ns: int
    args: dict[str, Any] | None = None


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
    """Everything one traced run recorded, across all tracks, as one list."""

    def __init__(self) -> None:
        #: Trace epoch: all exported timestamps are relative to this instant.
        self.epoch_ns: int = trace_clock_ns()
        self.tracer = Tracer(DRIVER_PID)
        #: Raw records (still carrying ``ts_ns``) across all tracks, in absorb order.
        self.records: list[dict[str, Any]] = []
        self._stream: BufferedEventLogWriter | None = None
        #: Where the event log was streamed, when it was.
        self.stream_path: Path | None = None
        self._streamed = 0  #: prefix of ``self.records`` already streamed out

    # -- collection --------------------------------------------------------------------

    def absorb(self, packet: TracePacket) -> None:
        """Merge one drained packet (host telemetry) into the run."""
        self.records.extend(packet.records)

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

    # -- folds -------------------------------------------------------------------------

    @property
    def spans(self) -> list[tuple[int, Span]]:
        """``(pid, Span)`` pairs across all tracks, in absorb order."""
        return [
            (r["pid"], Span(r["name"], r["ts_ns"] - r["dur_ns"], r["dur_ns"], r["args"]))
            for r in self.records
            if r["kind"] == "span"
        ]

    @property
    def events(self) -> list[dict[str, Any]]:
        """The raw records that are neither spans nor counters, in absorb order."""
        return [r for r in self.records if r["kind"] not in ("span", "counters")]

    @property
    def counters(self) -> dict[str, int | float]:
        """Every track's counters, summed."""
        totals: dict[str, int | float] = {}
        for r in self.records:
            if r["kind"] == "counters":
                for name, value in r["values"].items():
                    totals[name] = totals.get(name, 0) + value
        return totals

    # -- streaming ---------------------------------------------------------------------

    def open_stream(self, out_dir: str | Path) -> Path:
        """Start streaming the event log to ``<out_dir>/events.jsonl``."""
        self.stream_path = Path(out_dir) / "events.jsonl"
        self._stream = BufferedEventLogWriter(self.stream_path)
        return self.stream_path

    def stream_flush(self) -> None:
        """Stream every not-yet-streamed record; commit with one write+flush.

        Called at flush points (every round, teardown).  The driver
        tracer is drained first so its records enter the stream too.  Each
        batch is sorted by timestamp before writing; hosts drain at every
        protocol reply and the driver drains at every flush, and a span is
        stamped with its end, so no record stamped before a flush can be
        absorbed after it — per-batch sorting therefore yields a globally
        sorted file, the same list as :meth:`event_records`.
        """
        if self._stream is None:
            return
        self.finish()
        batch = self.records[self._streamed :]
        self._streamed = len(self.records)
        if batch:
            self._stream.write_many(_normalized(batch, self.epoch_ns))
        self._stream.flush()

    def close_stream(self) -> None:
        """Flush the tail and close the streaming writer (idempotent)."""
        if self._stream is None:
            return
        self.stream_flush()
        self._stream.close()
        self._stream = None

    # -- export ------------------------------------------------------------------------

    def event_records(self) -> list[dict[str, Any]]:
        """The run's event log: schema-stamped records, sorted by timestamp."""
        return _normalized(self.records, self.epoch_ns)

    def write(self, out_dir: str | Path, manifest: Mapping[str, Any] | None = None) -> dict[str, Path]:
        """Write the three run artifacts under ``out_dir``.

        Returns ``{"trace": ..., "events": ..., "manifest": ...}`` paths.
        The manifest gets the summed counters under ``counters``, and
        ``trace.json`` is rendered from the event log.  A log the run
        streamed into ``out_dir`` is already complete once its stream is
        closed, normalized and sorted: it is left as it is (rewriting it
        would show a reader tailing it an empty file) and rendered as read.
        """
        self.close_stream()
        self.finish()
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest_payload = dict(manifest or {})
        manifest_payload.setdefault("counters", self.counters)
        events_path = out_dir / "events.jsonl"
        if self.stream_path is not None and self.stream_path.resolve() == events_path.resolve():
            records = read_event_log(events_path)
        else:
            records = self.event_records()
            with BufferedEventLogWriter(events_path) as log:
                log.write_many(records)
        trace_path = write_chrome_trace(
            out_dir / "trace.json", chrome_trace(records, metadata={"manifest": "manifest.json"})
        )
        manifest_path = out_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest_payload, indent=2, sort_keys=True, default=str))
        return {"trace": trace_path, "events": events_path, "manifest": manifest_path}


def _normalized(raw: Iterable[Mapping[str, Any]], epoch_ns: int) -> list[dict[str, Any]]:
    """Raw records as schema-stamped log lines, sorted by timestamp."""
    records = [normalize_event(r, epoch_ns) for r in raw]
    records.sort(key=lambda r: r["ts_us"])
    return records
