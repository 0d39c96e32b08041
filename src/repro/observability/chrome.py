"""Chrome trace-event export: open any traced run in Perfetto.

Emits the JSON object format (``{"traceEvents": [...], ...}``) of the
Trace Event Format, the lingua franca of ``chrome://tracing`` and
https://ui.perfetto.dev — drag the ``.trace.json`` file onto either and the
run renders as one track per partition plus a driver track.

The trace is a rendering of the run's event log (``events.jsonl``) and of
nothing else, so a log read back from disk — a killed run's too — renders
the trace the run would have written.  ``span`` records become complete
events (``"ph": "X"`` with ``ts``/``dur`` in microseconds, starting
``dur_us`` before the ``ts_us`` the span ended at); ``counters`` records
are not drawn; every other record becomes a ``"ph": "i"`` mark.  Each
track gets a ``process_name`` metadata record so Perfetto labels it
``driver`` (track 0) or ``partition N`` (track N + 1).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from .events import _plain
from .tracer import DRIVER_PID

__all__ = ["TRACE_SCHEMA_VERSION", "chrome_trace", "validate_chrome_trace", "write_chrome_trace"]

#: Version of the exported trace envelope (recorded in trace metadata).
TRACE_SCHEMA_VERSION = 1

#: Keys every trace event must carry (the acceptance contract).
REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")

#: Log-record keys that are not an instant mark's ``args``.
_ENVELOPE = ("schema", "kind", "ts_us", "pid")


def chrome_trace(
    records: Iterable[Mapping[str, Any]], metadata: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Build the trace-event JSON object for one run from its event log.

    ``records`` are normalised log lines (``RunTrace.event_records()`` or
    a read-back ``events.jsonl``); ``metadata`` is merged into the
    top-level ``metadata`` object.
    """
    trace_events: list[dict[str, Any]] = []
    pids: set[int] = set()

    for record in records:
        kind, pid = record["kind"], record["pid"]
        if kind == "counters":
            continue
        pids.add(pid)
        if kind == "span":
            event: dict[str, Any] = {
                "ph": "X",
                "name": record["name"],
                "cat": "span",
                "ts": round(record["ts_us"] - record["dur_us"], 3),
                "dur": record["dur_us"],
                "pid": pid,
                "tid": 0,
            }
            if record["args"]:
                event["args"] = record["args"]
        else:
            event = {
                "ph": "i",
                "name": kind,
                "cat": "event",
                "s": "t",  # thread-scoped instant mark
                "ts": record["ts_us"],
                "pid": pid,
                "tid": 0,
                "args": {k: v for k, v in record.items() if k not in _ENVELOPE},
            }
        trace_events.append(event)

    # Stable per-track ordering: the acceptance contract requires monotone
    # timestamps within each (pid, tid) track, and viewers render faster on
    # sorted input.
    trace_events.sort(key=lambda r: (r["pid"], r["tid"], r["ts"]))

    head: list[dict[str, Any]] = []
    for pid in sorted(pids):
        head.append(
            {
                "ph": "M",
                "name": "process_name",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": "driver" if pid == DRIVER_PID else f"partition {pid - 1}"},
            }
        )
        head.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    return {
        "traceEvents": head + trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"trace_schema_version": TRACE_SCHEMA_VERSION, **_plain(metadata or {})},
    }


def write_chrome_trace(path: str | Path, trace: Mapping[str, Any]) -> Path:
    """Write a trace object produced by :func:`chrome_trace` to disk."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))
    return path


def validate_chrome_trace(trace: Mapping[str, Any]) -> list[str]:
    """Check a trace object against the acceptance contract.

    Returns a list of problems (empty means valid): every event must carry
    ``ph``/``ts``/``pid``/``tid``/``name``, and within each ``(pid, tid)``
    track non-metadata timestamps must be monotone non-decreasing in file
    order.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    last_ts: dict[tuple[int, int], float] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        missing = [k for k in REQUIRED_KEYS if k not in event]
        if missing:
            problems.append(f"event {i} ({event.get('name')!r}) missing keys {missing}")
            continue
        if event["ph"] == "M":
            continue
        key = (event["pid"], event["tid"])
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} ({event['name']!r}) has bad ts {ts!r}")
            continue
        if key in last_ts and ts < last_ts[key]:
            problems.append(
                f"event {i} ({event['name']!r}) breaks monotonicity on track {key}: "
                f"{ts} < {last_ts[key]}"
            )
        last_ts[key] = ts
    return problems
