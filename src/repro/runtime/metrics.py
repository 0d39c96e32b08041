"""Execution metrics: the measurements behind Figures 5–7.

The collector records one row per (phase, timestep, superstep, partition)
with measured compute seconds and modeled send seconds, plus per-timestep
instance-load and GC-pause events.  From those raw rows it derives:

* **superstep wall time** — max over partitions of (compute + send), the BSP
  critical path;
* **sync overhead** per partition — wall minus the partition's own busy time
  (idling at the barrier; Fig 7b/7d);
* **time per timestep** (Fig 6) — superstep walls plus the slowest host's
  instance load and GC pause for that timestep;
* **totals and utilization fractions** per partition (Fig 7b/7d);
* **simulated application makespan** (Fig 5a/5b).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["StepRecord", "MetricsCollector", "PartitionBreakdown"]

#: Phase tags for records.
PHASE_COMPUTE = "compute"
PHASE_MERGE = "merge"


@dataclass(frozen=True)
class StepRecord:
    """One partition's contribution to one superstep."""

    phase: str
    timestep: int
    superstep: int
    partition: int
    compute_s: float
    send_s: float
    subgraphs_computed: int
    messages_sent: int
    bytes_sent: int
    #: Messages delivered host-locally (same-partition short-circuit).
    local_messages: int = 0
    #: Messages that crossed partitions (shipped inside frames).
    remote_messages: int = 0
    #: Coalesced frames handed to the driver for routing.
    frames_sent: int = 0

    @property
    def busy_s(self) -> float:
        return self.compute_s + self.send_s


@dataclass(frozen=True)
class PartitionBreakdown:
    """Aggregate compute / overhead split for one partition (Fig 7b/7d)."""

    partition: int
    compute_s: float
    partition_overhead_s: float  #: message send time after compute (paper's term)
    sync_overhead_s: float  #: barrier idle time

    @property
    def total_s(self) -> float:
        return self.compute_s + self.partition_overhead_s + self.sync_overhead_s

    def fractions(self) -> tuple[float, float, float]:
        """(compute, partition overhead, sync overhead) as fractions of total."""
        t = self.total_s
        if t <= 0:
            return (0.0, 0.0, 0.0)
        return (self.compute_s / t, self.partition_overhead_s / t, self.sync_overhead_s / t)


class MetricsCollector:
    """Accumulates raw records during a run and derives figure-ready series."""

    def __init__(self, num_partitions: int, *, barrier_s: float = 0.0) -> None:
        self.num_partitions = int(num_partitions)
        self.barrier_s = float(barrier_s)
        self.step_records: list[StepRecord] = []
        #: (timestep, partition) -> *blocked* instance load seconds: the
        #: stall measured inside begin_timestep, which gates the timestep
        #: wall.  (The Fig 6 spike — flattened when prefetch hides it.)
        self.load_s: dict[tuple[int, int], float] = defaultdict(float)
        #: (timestep, partition) -> *hidden* load seconds: I/O a prefetching
        #: source overlapped with compute.  Same evidence, off the wall.
        self.load_hidden_s: dict[tuple[int, int], float] = defaultdict(float)
        #: timestep -> modeled cost of prefetch hint rounds issued during it.
        self.prefetch_s: dict[int, float] = defaultdict(float)
        #: (timestep, partition) -> GC pause seconds
        self.gc_s: dict[tuple[int, int], float] = defaultdict(float)
        #: timestep -> modeled subgraph-migration transfer seconds (rebalancing)
        self.migration_s: dict[int, float] = defaultdict(float)
        #: timestep -> number of migrations applied before it
        self.migrations: dict[int, int] = defaultdict(int)
        #: number of supersteps executed per timestep
        self.supersteps_per_timestep: dict[int, int] = defaultdict(int)
        self.merge_supersteps: int = 0
        #: timestep -> modeled checkpoint-write I/O seconds charged to it.
        #: A timestep-boundary checkpoint is keyed by the *next* timestep
        #: (like migrations: boundary work precedes the timestep it gates);
        #: superstep-boundary checkpoints are keyed by their own timestep.
        self.checkpoint_s: dict[int, float] = defaultdict(float)
        self.checkpoints: int = 0
        self.checkpoint_bytes: int = 0
        #: timestep -> measured host-repair seconds (respawn + restore +
        #: journal replay), keyed by the timestep of the round repaired.
        self.recovery_s: dict[int, float] = defaultdict(float)
        self.retries: int = 0

    # -- recording -----------------------------------------------------------------

    def record_step(self, record: StepRecord) -> None:
        self.step_records.append(record)
        if record.phase == PHASE_COMPUTE:
            self.supersteps_per_timestep[record.timestep] = max(
                self.supersteps_per_timestep[record.timestep], record.superstep + 1
            )
        else:
            self.merge_supersteps = max(self.merge_supersteps, record.superstep + 1)

    def record_load(
        self, timestep: int, partition: int, seconds: float, hidden: float = 0.0
    ) -> None:
        self.load_s[(timestep, partition)] += seconds
        if hidden:
            self.load_hidden_s[(timestep, partition)] += hidden

    def record_prefetch(self, timestep: int, seconds: float) -> None:
        """Modeled cost of one prefetch hint round issued during ``timestep``."""
        self.prefetch_s[timestep] += seconds

    def record_gc(self, timestep: int, partition: int, seconds: float) -> None:
        self.gc_s[(timestep, partition)] += seconds

    def record_migration(self, timestep: int, count: int, seconds: float) -> None:
        """Transfer cost of rebalancing applied before ``timestep``."""
        self.migrations[timestep] += count
        self.migration_s[timestep] += seconds

    def record_checkpoint(self, timestep: int, nbytes: int, seconds: float) -> None:
        """Modeled I/O cost of one checkpoint write charged to ``timestep``."""
        self.checkpoints += 1
        self.checkpoint_bytes += int(nbytes)
        self.checkpoint_s[timestep] += seconds

    def record_recovery(self, timestep: int, seconds: float) -> None:
        """Measured wall of one recovery in a round of ``timestep``."""
        self.retries += 1
        self.recovery_s[timestep] += seconds

    # -- derivations ------------------------------------------------------------------

    def _steps_by_key(self) -> dict[tuple[str, int, int], list[StepRecord]]:
        grouped: dict[tuple[str, int, int], list[StepRecord]] = defaultdict(list)
        for r in self.step_records:
            grouped[(r.phase, r.timestep, r.superstep)].append(r)
        return grouped

    def superstep_walls(self) -> dict[tuple[str, int, int], float]:
        """Wall time of each superstep: max partition busy time + barrier."""
        return {
            key: max(r.busy_s for r in rows) + self.barrier_s
            for key, rows in self._steps_by_key().items()
        }

    def timestep_wall(self, timestep: int) -> float:
        """Fig 6 quantity: total wall time attributed to one timestep."""
        walls = self.superstep_walls()
        total = sum(
            w for (phase, t, _s), w in walls.items() if phase == PHASE_COMPUTE and t == timestep
        )
        loads = [self.load_s.get((timestep, p), 0.0) for p in range(self.num_partitions)]
        gcs = [self.gc_s.get((timestep, p), 0.0) for p in range(self.num_partitions)]
        # Loads and GC are synchronized across partitions (barriered timestep
        # start), so the slowest host gates everyone; migration transfers
        # likewise happen at the boundary.
        return (
            total
            + (max(loads) if loads else 0.0)
            + (max(gcs) if gcs else 0.0)
            + self.migration_s.get(timestep, 0.0)
            + self.checkpoint_s.get(timestep, 0.0)
            + self.recovery_s.get(timestep, 0.0)
            + self.prefetch_s.get(timestep, 0.0)
        )

    def timestep_series(self) -> list[float]:
        """Wall time per executed timestep, in timestep order (Fig 6 series)."""
        timesteps = sorted(self.supersteps_per_timestep)
        return [self.timestep_wall(t) for t in timesteps]

    def merge_wall(self) -> float:
        """Wall time of the Merge phase (eventually dependent pattern)."""
        walls = self.superstep_walls()
        return sum(w for (phase, _t, _s), w in walls.items() if phase == PHASE_MERGE)

    def total_wall(self) -> float:
        """Simulated application makespan (Fig 5a/5b quantity)."""
        return sum(self.timestep_series()) + self.merge_wall()

    def partition_breakdown(self) -> list[PartitionBreakdown]:
        """Per-partition compute / partition-overhead / sync-overhead totals."""
        walls = self.superstep_walls()
        compute = np.zeros(self.num_partitions)
        send = np.zeros(self.num_partitions)
        busy_by_key: dict[tuple[str, int, int], dict[int, float]] = defaultdict(dict)
        for r in self.step_records:
            compute[r.partition] += r.compute_s
            send[r.partition] += r.send_s
            busy_by_key[(r.phase, r.timestep, r.superstep)][r.partition] = r.busy_s
        sync = np.zeros(self.num_partitions)
        for key, wall in walls.items():
            busy = busy_by_key[key]
            for p in range(self.num_partitions):
                sync[p] += wall - busy.get(p, 0.0)
        # Idle hosts during loads/GC also accrue sync overhead.
        for t in self.supersteps_per_timestep:
            loads = [self.load_s.get((t, p), 0.0) for p in range(self.num_partitions)]
            gcs = [self.gc_s.get((t, p), 0.0) for p in range(self.num_partitions)]
            for p in range(self.num_partitions):
                sync[p] += (max(loads) - loads[p]) + (max(gcs) - gcs[p])
        return [
            PartitionBreakdown(p, float(compute[p]), float(send[p]), float(sync[p]))
            for p in range(self.num_partitions)
        ]

    def total_messages(self) -> int:
        return sum(r.messages_sent for r in self.step_records)

    def total_local_messages(self) -> int:
        """Messages short-circuited host-locally (never routed by the driver)."""
        return sum(r.local_messages for r in self.step_records)

    def total_remote_messages(self) -> int:
        """Messages that crossed partitions (shipped in frames)."""
        return sum(r.remote_messages for r in self.step_records)

    def total_frames(self) -> int:
        """Coalesced frames the driver routed (its per-superstep work unit)."""
        return sum(r.frames_sent for r in self.step_records)

    def cut_traffic_ratio(self) -> float:
        """Fraction of messages that crossed partitions (Fig 5b-style cut)."""
        local, remote = self.total_local_messages(), self.total_remote_messages()
        total = local + remote
        return remote / total if total else 0.0

    def total_bytes_sent(self) -> int:
        """Total modeled payload bytes shipped across partitions."""
        return sum(r.bytes_sent for r in self.step_records)

    def total_supersteps(self) -> int:
        """Total BSP supersteps across all timesteps plus the merge phase."""
        return sum(self.supersteps_per_timestep.values()) + self.merge_supersteps

    def num_timesteps_executed(self) -> int:
        return len(self.supersteps_per_timestep)

    def total_load_s(self) -> float:
        """Blocked instance-load seconds summed over every (timestep, partition)."""
        return sum(self.load_s.values())

    def total_load_hidden_s(self) -> float:
        """Load seconds hidden behind compute by prefetching sources."""
        return sum(self.load_hidden_s.values())

    def total_prefetch_s(self) -> float:
        """Modeled prefetch hint-round seconds over the whole run."""
        return sum(self.prefetch_s.values())

    def total_gc_s(self) -> float:
        """GC-pause seconds summed over every (timestep, partition)."""
        return sum(self.gc_s.values())

    def total_migrations(self) -> int:
        """Subgraph migrations applied by dynamic rebalancing."""
        return sum(self.migrations.values())

    def total_migration_s(self) -> float:
        """Modeled transfer seconds spent on rebalancing migrations."""
        return sum(self.migration_s.values())

    def total_checkpoint_s(self) -> float:
        """Modeled checkpoint-write I/O seconds over the whole run."""
        return sum(self.checkpoint_s.values())

    def total_recovery_s(self) -> float:
        """Measured host-repair seconds over the whole run."""
        return sum(self.recovery_s.values())

    def summary(self) -> dict:
        """Flat summary dict for reports and benches."""
        return {
            "total_wall_s": round(self.total_wall(), 6),
            "timesteps": self.num_timesteps_executed(),
            "supersteps": self.total_supersteps(),
            "messages": self.total_messages(),
            "local_messages": self.total_local_messages(),
            "remote_messages": self.total_remote_messages(),
            "frames": self.total_frames(),
            "bytes_sent": self.total_bytes_sent(),
            "cut_traffic_ratio": round(self.cut_traffic_ratio(), 6),
            "migrations": self.total_migrations(),
            "migration_s": round(self.total_migration_s(), 6),
            "load_s": round(self.total_load_s(), 6),
            "load_blocked_s": round(self.total_load_s(), 6),
            "load_hidden_s": round(self.total_load_hidden_s(), 6),
            "prefetch_s": round(self.total_prefetch_s(), 6),
            "gc_s": round(self.total_gc_s(), 6),
            "merge_wall_s": round(self.merge_wall(), 6),
            "checkpoints": self.checkpoints,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_s": round(self.total_checkpoint_s(), 6),
            "retries": self.retries,
            "recovery_s": round(self.total_recovery_s(), 6),
        }
