"""Machine-readable export of run artifacts (JSON).

Benchmarks render text tables for humans; downstream analysis (plotting the
figures, regression tracking) wants structured data.  These helpers write
whole-run summaries to JSON, with numpy types coerced to plain Python so
files are portable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..core.results import AppResult
from ..observability.events import _plain

__all__ = ["failure_provenance", "result_summary", "write_result_json"]


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
