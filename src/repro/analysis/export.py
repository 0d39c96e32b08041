"""Machine-readable export of run artifacts (CSV / JSON).

Benchmarks render text tables for humans; downstream analysis (plotting the
figures, regression tracking) wants structured data.  These helpers write
the same rows/series to CSV, and whole-run summaries to JSON, with numpy
types coerced to plain Python so files are portable.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..core.results import AppResult

__all__ = [
    "write_csv", "write_series_csv", "failure_provenance", "result_summary", "write_result_json",
]


def _plain(value: Any) -> Any:
    """Coerce numpy scalars/arrays to JSON/CSV-friendly Python values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def write_csv(path: str | Path, rows: Sequence[Mapping], *, columns: Sequence[str] | None = None) -> Path:
    """Write dict rows as CSV (columns from the first row unless given)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    columns = list(columns) if columns is not None else list(rows[0].keys())
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: _plain(row.get(c)) for c in columns})
    return path


def write_series_csv(
    path: str | Path,
    series: Mapping[str, Iterable[float]],
    *,
    index_name: str = "timestep",
) -> Path:
    """Write named series as columns with a shared integer index."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(series)
    columns = {name: [_plain(v) for v in values] for name, values in series.items()}
    length = max((len(v) for v in columns.values()), default=0)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([index_name, *names])
        for i in range(length):
            writer.writerow(
                [i, *(columns[n][i] if i < len(columns[n]) else "" for n in names)]
            )
    return path


def failure_provenance(result: AppResult) -> dict:
    """What a run failed of and how it was repaired: each failure and repair
    record as its event-log line, the structured failure, the partitions
    given up on, and the wire protocol's counters."""
    return {
        "failure": None if result.failure is None else _plain(result.failure.as_dict()),
        "failure_log": [_plain({"kind": r.kind, **r.as_event()}) for r in result.failure_log],
        "recovery_actions": [
            _plain({"kind": a.kind, **a.as_event()}) for a in result.recovery_actions
        ],
        "degraded_partitions": list(result.degraded_partitions),
        "protocol_stats": dict(result.protocol_stats),
    }


def result_summary(result: AppResult) -> dict:
    """A JSON-serializable summary of one run (progress, metrics, and its
    :func:`failure_provenance`)."""
    summary: dict[str, Any] = {
        "timesteps_executed": result.timesteps_executed,
        "halted_early": result.halted_early,
        "num_outputs": len(result.outputs),
        "num_merge_outputs": len(result.merge_outputs),
        **failure_provenance(result),
    }
    if result.metrics is not None:
        m = result.metrics
        summary["metrics"] = _plain(m.summary())
        summary["timestep_series_s"] = _plain(m.timestep_series())
        summary["partitions"] = [
            {
                "partition": b.partition,
                "compute_s": b.compute_s,
                "partition_overhead_s": b.partition_overhead_s,
                "sync_overhead_s": b.sync_overhead_s,
            }
            for b in m.partition_breakdown()
        ]
    return summary


def write_result_json(path: str | Path, result: AppResult, **extra: Any) -> Path:
    """Write :func:`result_summary` (plus ``extra`` keys) as pretty JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = result_summary(result)
    payload.update(_plain(extra))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
