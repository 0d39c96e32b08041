"""Observability plane: span tracer, event log, counters, Perfetto export.

This package is deliberately **zero-dependency and repro-agnostic** — the
tracer imports nothing from the rest of the package but the import-free
``repro._value``, so every layer (engine, hosts, clusters, storage) can
instrument itself without import cycles.

Three primitives, one collector:

* :class:`~repro.observability.tracer.Tracer` — per-track recorder
  (``with tracer.span("superstep", t=3, s=0): ...``) with monotonic
  nanosecond clocks, instant events, and counters, all kept as one list of
  records.  One tracer per host/worker plus one for the driver; everything
  a worker records is drained into a picklable
  :class:`~repro.observability.tracer.TracePacket` and marshalled back over
  the existing protocol replies.
* the structured **event log** (:mod:`~repro.observability.events`) —
  schema-versioned JSONL records: step records, frame ships, combiner
  folds, slice loads, GC pauses, barrier waits, spans and counters.
* the **Chrome trace-event export** (:mod:`~repro.observability.chrome`) —
  a rendering of the event log that opens directly in Perfetto /
  ``chrome://tracing`` with one track per partition plus a driver track.

:class:`~repro.observability.runtrace.RunTrace` is the driver-side
collector the engine owns for one run: it absorbs packets into one list of
records and writes the three run artifacts (``events.jsonl``, then
``trace.json`` and ``manifest.json``'s counters as folds over it).  The
driver reaches it and the run's
metrics collector through one
:class:`~repro.observability.recorder.RunRecorder`, which states each fact
once and is the only place that knows whether the run is traced.

The live view is a reader of the streamed log: ``tibsp top``
(:mod:`~repro.observability.top`, loaded on selection — it folds the log
through the run's own collector class) tails ``events.jsonl`` and folds it.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".chrome": (
        "TRACE_SCHEMA_VERSION", "chrome_trace", "validate_chrome_trace", "write_chrome_trace",
    ),
    ".events": (
        "EVENT_SCHEMA_VERSION", "BufferedEventLogWriter", "read_event_log", "tail_event_log",
    ),
    ".provenance": ("PROVENANCE_SCHEMA_VERSION", "git_describe", "run_provenance"),
    ".recorder": ("RunRecorder",),
    ".runtrace": ("RunTrace", "Span", "TraceConfig"),
    ".tracer": ("DRIVER_PID", "NULL_SPAN", "TracePacket", "Tracer", "partition_pid"),
})
