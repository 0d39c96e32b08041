"""Structured event log: schema-versioned JSONL records.

One traced run emits one ``events.jsonl`` file: one JSON object per line,
every line stamped with ``schema`` (see :data:`EVENT_SCHEMA_VERSION`) and
carrying ``kind``, a normalized microsecond timestamp ``ts_us`` (relative
to the run's trace epoch), and the logical track id ``pid``.

Seven kinds are the run's typed records (:mod:`repro.runtime.metrics`:
``step``, ``instance_load``, ``gc_pause``, ``checkpoint_write``,
``failure``, ``worker_respawn``, ``protocol_retry``): the line *is* the
record, so ``MetricsCollector.from_events`` folds a log back into the
collector the run ended with.  Every other kind is trace-only evidence, and
a kind a log of an older schema carries beyond these is skipped by the
fold.

Schema v1 event kinds
---------------------

====================  =========================================================
``run_begin``         the log's first line: what it is a log of
                      (``num_partitions``, ``start``/``stop`` timesteps,
                      ``pattern``, ``executor``, modeled ``barrier_s``)
``run_end``           the log's last line when the driver got to say it
                      (``timesteps_executed``); a reader tells a finished
                      run from a stalled one by it
``step``              one partition's contribution to one superstep (driver):
                      ``phase``/``timestep``/``superstep``/``partition`` plus
                      ``compute_s``/``send_s``/message counts — the basis
                      of the Fig 7 breakdown
``barrier``           driver-measured scatter/gather wall for one superstep
``frame_ship``        one coalesced frame leaving a host (dst partition,
                      message count, payload bytes, temporal flag)
``combine``           a combiner fold (messages in → messages out)
``instance_load``     one host's instance load: superstep 0's, and packs compute read
``slice_load``        a GoFS pack load (the Fig 6 every-10th-timestep spike)
``gc_pause``          modeled GC pause charged at a timestep boundary
``vm_spinup`` /       elastic-scaling policy decisions (offline replay)
``vm_spindown``
``checkpoint_write``  one durable snapshot (``nbytes``, measured ``seconds``,
                      modeled ``cost_s``, checkpoint name), charged to the
                      ``timestep`` it closes
``failure``           a recoverable failure was handled: coordinates,
                      ``attempt``, the ``error`` class and its ``message``,
                      and the ``action`` decided (``retry`` / ``quarantine``
                      / ``raise`` / ``degrade``; a wire incident the resend
                      protocol cured is ``retry`` at attempt 1)
``restore``           a ``resume_from`` run installed its checkpoint
                      (always ``resumed=True``; the log starts here, while
                      the run's collector also carries what ran before)
``worker_respawn``    recovery completed: one worker respawned at a
                      higher ``incarnation``, its partition restored and
                      ``replayed_rounds`` journal rounds replayed while
                      ``survivors`` hosts held at the barrier (``error``:
                      the error class repaired)
``protocol_retry``    the wire protocol cured a dropped/corrupt/wedged reply
                      with an idempotent resend (no respawn needed)
``frames_dropped``    deliveries addressed to a quarantined partition were
                      dropped (``messages`` counted, degraded-run contract)
``worker_quarantined``  a partition exhausted its retry budget and was
                      quarantined (``on_exhausted="quarantine"``)
``span``              one closed span on its track: ``name``, ``dur_us`` and
                      ``args`` (or null); its ``ts_us`` is its *end*, the
                      moment it became a fact, so the log stays sorted
``counters``          one drain's counter sums on its track (``values``:
                      counter name → amount); a run's counters are their sum
====================  =========================================================

``trace.json`` is a rendering of this log
(:func:`~repro.observability.chrome.chrome_trace`), so a log read back from
disk renders the same trace.

Unknown kinds are allowed — the schema governs the envelope (``schema``,
``kind``, ``ts_us``, ``pid``), not the closed set of kinds.

A log may be read while it is written: a reader takes the complete lines
only.  An incomplete final line (no trailing newline — a write in progress,
or a run killed mid-flush) is skipped; a corrupt complete line raises.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "BufferedEventLogWriter",
    "normalize_event",
    "read_event_log",
    "tail_event_log",
]

#: Version of the event-record envelope written to events.jsonl.
EVENT_SCHEMA_VERSION = 1


def _plain(value: Any) -> Any:
    """Coerce a value to plain, JSON-ready Python: a numpy scalar to its
    Python value, an array to (nested) lists, a tuple to a list and a
    mapping's keys to strings, recursively; anything else is returned as is.
    The event log, the Chrome trace and the result exports all write
    through it."""
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    tolist = getattr(value, "tolist", None)  # numpy scalars and arrays
    return value if tolist is None else tolist()


def normalize_event(raw: Mapping[str, Any], epoch_ns: int) -> dict[str, Any]:
    """Turn a tracer-recorded event into a schema-stamped JSONL record.

    ``ts_ns`` (absolute monotonic) becomes ``ts_us`` relative to the run's
    trace epoch, a span's ``dur_ns`` becomes ``dur_us``, and every other
    field is coerced to plain Python.
    """
    record: dict[str, Any] = {
        "schema": EVENT_SCHEMA_VERSION,
        "kind": raw["kind"],
        "ts_us": round((raw["ts_ns"] - epoch_ns) / 1000.0, 3),
        "pid": int(raw["pid"]),
    }
    for key, value in raw.items():
        if key == "dur_ns":
            record["dur_us"] = round(value / 1000.0, 3)
        elif key not in ("kind", "ts_ns", "pid"):
            record[key] = _plain(value)
    return record


class BufferedEventLogWriter:
    """The one JSONL event-log writer, with batched, explicit flush points.

    It accumulates serialized lines in memory and commits each
    :meth:`flush` batch with a **single** joined write + flush, so a flush
    point (e.g. a timestep boundary) costs one syscall pair regardless of
    how many events the round produced, and everything written before the
    last flush survives a ``kill -9``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", buffering=1024 * 1024)
        self._pending: list[str] = []

    def write_many(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Queue schema-stamped records (serialized now, written at flush)."""
        dumps = json.dumps
        self._pending.extend(dumps(r, separators=(",", ":")) for r in records)

    def flush(self) -> None:
        """Commit the pending batch: one write, one flush."""
        if self._pending:
            self._fh.write("\n".join(self._pending) + "\n")
            self._pending.clear()
        self._fh.flush()

    def close(self) -> None:
        """Flush and close; idempotent, safe from ``finally`` blocks."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "BufferedEventLogWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def tail_event_log(path: str | Path, offset: int = 0) -> tuple[list[dict[str, Any]], int]:
    """The complete records of an events.jsonl from byte ``offset`` on, and
    the offset just past the last of them (where the next read starts)."""
    with Path(path).open("rb") as fh:
        fh.seek(offset)
        data = fh.read()
    end = data.rfind(b"\n") + 1
    records = [json.loads(line) for line in data[:end].splitlines() if line.strip()]
    return records, offset + end


def read_event_log(path: str | Path) -> list[dict[str, Any]]:
    """Read an events.jsonl file back into a list of dicts (complete lines)."""
    return tail_event_log(path)[0]
