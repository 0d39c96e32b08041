"""Replay the structured event log into the Fig 7 utilization breakdown.

The observability plane's JSONL event log claims to record *everything* the
engine's :class:`~repro.runtime.metrics.MetricsCollector` sees: one ``step``
event per (phase, timestep, superstep, partition), plus ``instance_load``,
``gc_pause`` and ``migration`` events.  This module re-derives the paper's
timing quantities from those events alone — superstep walls as the max
partition busy time plus the barrier cost, sync overhead as barrier idling,
load/GC idling charged to the non-slowest hosts — without calling any
collector derivation.  :func:`crosscheck` then compares the replay against
the collector, so a dropped or double-counted event shows up as a numeric
mismatch instead of silently producing a misleading trace.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from ..core.results import AppResult
from ..runtime.metrics import PHASE_COMPUTE, PartitionBreakdown

__all__ = [
    "replay_partition_breakdown",
    "replay_timestep_walls",
    "crosscheck_trace",
]


def _step_groups(
    events: Iterable[Mapping],
) -> dict[tuple[str, int, int], dict[int, Mapping]]:
    """``(phase, timestep, superstep) -> partition -> step event``."""
    grouped: dict[tuple[str, int, int], dict[int, Mapping]] = defaultdict(dict)
    for e in events:
        if e.get("kind") != "step":
            continue
        key = (e["phase"], e["timestep"], e["superstep"])
        grouped[key][e["partition"]] = e
    return grouped


def _per_timestep_max(
    events: Iterable[Mapping], kind: str, num_partitions: int
) -> dict[int, list[float]]:
    """``timestep -> per-partition seconds`` for load/GC events."""
    per: dict[int, list[float]] = defaultdict(lambda: [0.0] * num_partitions)
    for e in events:
        if e.get("kind") == kind:
            per[e["timestep"]][e["partition"]] += e["seconds"]
    return per


def replay_partition_breakdown(
    events: Sequence[Mapping],
    num_partitions: int,
    *,
    barrier_s: float = 0.0,
) -> list[PartitionBreakdown]:
    """Fig 7b/7d breakdown rebuilt from ``step``/``instance_load``/``gc_pause`` events.

    Independent of the collector: walls, busy times and barrier idling are
    recomputed here from the event stream.  ``barrier_s`` is the modeled
    per-superstep barrier cost (``CostModel.barrier_cost``), recorded in the
    run manifest.
    """
    compute = [0.0] * num_partitions
    send = [0.0] * num_partitions
    sync = [0.0] * num_partitions
    for _key, rows in _step_groups(events).items():
        busy = {p: e["compute_s"] + e["send_s"] for p, e in rows.items()}
        wall = max(busy.values(), default=0.0) + barrier_s
        for p, e in rows.items():
            compute[p] += e["compute_s"]
            send[p] += e["send_s"]
        for p in range(num_partitions):
            sync[p] += wall - busy.get(p, 0.0)
    # Hosts idle while the slowest partition loads its instance or pauses
    # for GC — charge the difference as sync overhead, like the collector.
    for kind in ("instance_load", "gc_pause"):
        for _t, seconds in _per_timestep_max(events, kind, num_partitions).items():
            peak = max(seconds)
            for p in range(num_partitions):
                sync[p] += peak - seconds[p]
    return [
        PartitionBreakdown(p, compute[p], send[p], sync[p])
        for p in range(num_partitions)
    ]


def replay_timestep_walls(
    events: Sequence[Mapping],
    num_partitions: int,
    *,
    barrier_s: float = 0.0,
) -> dict[int, float]:
    """Fig 6 series rebuilt from events: ``timestep -> wall seconds``.

    Sums the compute-phase superstep walls per timestep and adds the slowest
    host's load and GC pause, any rebalancing transfer cost, modeled
    checkpoint-write I/O, and measured host-repair time.
    """
    walls: dict[int, float] = defaultdict(float)
    for (phase, t, _s), rows in _step_groups(events).items():
        if phase != PHASE_COMPUTE:
            continue
        busy = max((e["compute_s"] + e["send_s"] for e in rows.values()), default=0.0)
        walls[t] += busy + barrier_s
    for kind in ("instance_load", "gc_pause"):
        for t, seconds in _per_timestep_max(events, kind, num_partitions).items():
            walls[t] += max(seconds)
    for e in events:
        kind = e.get("kind")
        if kind == "migration":
            walls[e["timestep"]] += e["cost_s"]
        elif kind == "checkpoint_write":
            walls[e["timestep"]] += e["cost_s"]
        elif kind == "prefetch_issue":
            walls[e["timestep"]] += e["cost_s"]
        elif kind in ("worker_respawn", "protocol_retry"):
            # The collector records a repair's measured seconds at the
            # round's timestep.
            walls[e["timestep"]] += e["seconds"]
    return dict(walls)


def crosscheck_trace(
    result: AppResult,
    *,
    tolerance: float = 1e-9,
) -> list[str]:
    """Compare the event-log replay against the run's MetricsCollector.

    Returns a list of human-readable mismatch descriptions — empty when the
    event log is complete (every quantity the collector derives can be
    re-derived from events within ``tolerance``).  Requires a traced result
    (``EngineConfig(tracing=...)``).
    """
    if result.trace is None:
        raise ValueError("result has no trace — run with EngineConfig(tracing=True)")
    if result.metrics is None:
        raise ValueError("result has no metrics")
    m = result.metrics
    events = result.trace.event_records()
    if any(e.get("kind") == "restore" and e.get("resumed") for e in events):
        raise ValueError(
            "cannot cross-check a resumed run: its metrics carry records from "
            "the original run, but its trace starts at the resume point"
        )
    problems: list[str] = []

    replayed = replay_partition_breakdown(
        events, m.num_partitions, barrier_s=m.barrier_s
    )
    for got, want in zip(replayed, m.partition_breakdown()):
        for field in ("compute_s", "partition_overhead_s", "sync_overhead_s"):
            g, w = getattr(got, field), getattr(want, field)
            if abs(g - w) > tolerance * max(1.0, abs(w)):
                problems.append(
                    f"partition {want.partition} {field}: replay {g!r} != collector {w!r}"
                )

    walls = replay_timestep_walls(events, m.num_partitions, barrier_s=m.barrier_s)
    for t in sorted(m.supersteps_per_timestep):
        g, w = walls.get(t, 0.0), m.timestep_wall(t)
        if abs(g - w) > tolerance * max(1.0, abs(w)):
            problems.append(f"timestep {t} wall: replay {g!r} != collector {w!r}")

    # Blocked vs hidden load must also replay exactly: a journal replay
    # that leaked a second instance_load (or a dropped committed one) shows
    # up here even when it cancels out of the wall arithmetic.
    loads = [e for e in events if e.get("kind") == "instance_load"]
    blocked = sum(e["seconds"] for e in loads)
    hidden = sum(e.get("hidden_s", 0.0) for e in loads)
    for label, g, w in (
        ("blocked load", blocked, m.total_load_s()),
        ("hidden load", hidden, m.total_load_hidden_s()),
    ):
        if abs(g - w) > tolerance * max(1.0, abs(w)):
            problems.append(f"{label} total: replay {g!r} != collector {w!r}")
    return problems
