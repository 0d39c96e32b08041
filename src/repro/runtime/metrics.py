"""Execution metrics: the measurements behind Figures 5–7.

A run's facts are typed **records** — one :class:`StepRecord` per (phase,
timestep, superstep, partition) with measured compute seconds and modeled
send seconds, plus small siblings for instance loads, GC pauses,
checkpoint writes and completed repairs — and
:meth:`MetricsCollector.fold` is the only thing that writes the collector's
tables.  An event-log line is a record's fields under its ``kind``
(:meth:`Record.as_event`), so :meth:`MetricsCollector.from_events` rebuilds
the same collector from an ``events.jsonl``: one stream, one arithmetic.
From the folded records the collector derives:

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
from typing import Any, ClassVar, Iterable, Mapping

import numpy as np

__all__ = [
    "Record", "StepRecord", "LoadRecord", "GcRecord", "CheckpointRecord", "RespawnRecord",
    "ProtocolRetryRecord", "MetricsCollector", "PartitionBreakdown",
]

#: Phase tags for records.
PHASE_COMPUTE = "compute"
PHASE_MERGE = "merge"


class Record:
    """Base of the typed run records (frozen dataclasses).

    ``kind`` is the record's event-log kind; an event line carries the
    record's fields under it, spelled as the dataclass spells them except
    where schema v1 already had another name (``_event_names``).
    """

    kind: ClassVar[str]
    #: dataclass field -> its name on a schema-v1 event line, where they differ
    _event_names: ClassVar[dict[str, str]] = {}

    def as_event(self) -> dict[str, Any]:
        """The fields of this record's event-log line (without the envelope)."""
        names = self._event_names
        return {names.get(f, f): v for f, v in vars(self).items()}

    @classmethod
    def from_event(cls, event: Mapping[str, Any]) -> "Record":
        """The record an event-log line carries; absent fields take their defaults."""
        names = cls._event_names
        pairs = ((f, names.get(f, f)) for f in cls.__dataclass_fields__)
        return cls(**{f: event[name] for f, name in pairs if name in event})


@dataclass(frozen=True)
class StepRecord(Record):
    """One partition's contribution to one superstep."""

    kind = "step"
    _event_names = {
        "subgraphs_computed": "subgraphs",
        "messages_sent": "messages",
        "bytes_sent": "bytes",
        "local_messages": "local",
        "remote_messages": "remote",
        "frames_sent": "frames",
    }

    phase: str
    timestep: int
    superstep: int
    partition: int
    compute_s: float
    send_s: float
    subgraphs_computed: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    #: Messages delivered host-locally (same-partition short-circuit).
    local_messages: int = 0
    #: Messages that crossed partitions (shipped inside frames).
    remote_messages: int = 0
    #: Coalesced frames handed to the driver for routing.
    frames_sent: int = 0

    @classmethod
    def of(cls, phase: str, timestep: int, superstep: int, reply: Any) -> "StepRecord":
        """The record of one host's reply (a ``HostStepResult``) to a round."""
        return cls(
            phase, timestep, superstep, reply.partition,
            reply.compute_s, reply.send_s, reply.subgraphs_computed,
            reply.messages_sent, reply.bytes_sent,
            reply.local_messages, reply.remote_messages, reply.frames_sent,
        )

    @property
    def busy_s(self) -> float:
        return self.compute_s + self.send_s


@dataclass(frozen=True)
class LoadRecord(Record):
    """One host's instance load: superstep 0's opening, and the packs a round's
    compute read."""

    kind = "instance_load"

    timestep: int
    partition: int
    #: *Blocked* seconds: the stall measured inside the round.
    seconds: float


@dataclass(frozen=True)
class GcRecord(Record):
    """One modeled GC pause charged at a timestep boundary."""

    kind = "gc_pause"

    timestep: int
    partition: int
    seconds: float


@dataclass(frozen=True)
class CheckpointRecord(Record):
    """One durable checkpoint write, charged to the ``timestep`` it closes.

    ``seconds`` is the measured write, ``cost_s`` the modeled I/O the
    simulated wall is charged.
    """

    kind = "checkpoint_write"

    timestep: int
    nbytes: int
    seconds: float
    cost_s: float
    name: str = ""


@dataclass(frozen=True)
class RespawnRecord(Record):
    """One completed host repair (respawn + restore + journal replay), measured."""

    kind = "worker_respawn"

    timestep: int
    superstep: int
    partition: int
    attempt: int
    seconds: float
    incarnation: int
    replayed_rounds: int
    survivors: int
    #: Kind of the failure repaired (what the ``worker_lost`` event reported).
    error: str = ""


@dataclass(frozen=True)
class ProtocolRetryRecord(Record):
    """One wire-level incident the idempotent resend protocol cured, measured."""

    kind = "protocol_retry"

    timestep: int
    superstep: int
    partition: int
    seconds: float
    error: str


#: Event-log kind -> the record class its lines carry.
RECORD_KINDS: dict[str, type[Record]] = {cls.kind: cls for cls in Record.__subclasses__()}


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
    """Folds a run's records into tables and derives figure-ready series."""

    def __init__(self, num_partitions: int, *, barrier_s: float = 0.0) -> None:
        self.num_partitions = int(num_partitions)
        self.barrier_s = float(barrier_s)
        self.step_records: list[StepRecord] = []
        #: (timestep, partition) -> *blocked* instance load seconds: the
        #: stall measured inside the rounds, which gates the timestep wall.
        #: (The Fig 6 spike.)
        self.load_s: dict[tuple[int, int], float] = defaultdict(float)
        #: (timestep, partition) -> GC pause seconds
        self.gc_s: dict[tuple[int, int], float] = defaultdict(float)
        #: number of supersteps executed per timestep
        self.supersteps_per_timestep: dict[int, int] = defaultdict(int)
        self.merge_supersteps: int = 0
        #: timestep -> modeled checkpoint-write I/O seconds charged to it.
        #: A checkpoint is keyed by the timestep it *closes* (so the one
        #: after the last timestep still lands on an executed timestep).
        self.checkpoint_s: dict[int, float] = defaultdict(float)
        self.checkpoints: int = 0
        self.checkpoint_bytes: int = 0
        #: timestep -> measured host-repair seconds (respawn + restore +
        #: journal replay), keyed by the timestep of the round repaired.
        self.recovery_s: dict[int, float] = defaultdict(float)
        self.retries: int = 0

    # -- recording -----------------------------------------------------------------

    def fold(self, record: Record) -> None:
        """Fold one record into the tables — the collector's only write path."""
        kind = record.kind
        t = record.timestep
        if kind == "step":
            self.step_records.append(record)
            if record.phase == PHASE_COMPUTE:
                self.supersteps_per_timestep[t] = max(
                    self.supersteps_per_timestep[t], record.superstep + 1
                )
            else:
                self.merge_supersteps = max(self.merge_supersteps, record.superstep + 1)
        elif kind == "instance_load":
            self.load_s[(t, record.partition)] += record.seconds
        elif kind == "gc_pause":
            self.gc_s[(t, record.partition)] += record.seconds
        elif kind == "checkpoint_write":
            self.checkpoints += 1
            self.checkpoint_bytes += int(record.nbytes)
            self.checkpoint_s[t] += record.cost_s
        elif kind in ("worker_respawn", "protocol_retry"):
            self.retries += 1
            self.recovery_s[t] += record.seconds
        else:
            raise TypeError(f"not a run record: {record!r}")

    @classmethod
    def from_events(
        cls, events: Iterable[Mapping[str, Any]], num_partitions: int, *, barrier_s: float = 0.0
    ) -> "MetricsCollector":
        """Rebuild a run's collector from its event log (the inverse of ``as_event``).

        ``events`` are ``result.trace.event_records()`` or a read-back
        ``events.jsonl``, in log order; lines of other kinds are skipped.
        ``barrier_s`` is the modeled per-superstep barrier cost
        (``CostModel.barrier_cost``), recorded in the run manifest.
        """
        metrics = cls(num_partitions, barrier_s=barrier_s)
        metrics.fold_events(events)
        return metrics

    def fold_events(self, events: Iterable[Mapping[str, Any]]) -> None:
        """Fold event-log lines, in log order, skipping lines of other kinds
        (what a reader tailing a streamed log does batch by batch)."""
        for event in events:
            record_cls = RECORD_KINDS.get(event.get("kind"))
            if record_cls is not None:
                self.fold(record_cls.from_event(event))

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

    def _timestep_walls(self, timesteps: Iterable[int]) -> list[float]:
        """Fig 6 quantity for each of ``timesteps``, from one grouping of the records."""
        compute: dict[int, list[float]] = defaultdict(list)
        for (phase, t, _s), wall in self.superstep_walls().items():
            if phase == PHASE_COMPUTE:
                compute[t].append(wall)
        parts = range(self.num_partitions)
        # Loads and GC are synchronized across partitions (barriered timestep
        # start), so the slowest host gates everyone.
        return [
            sum(compute.get(t, ()))
            + max((self.load_s.get((t, p), 0.0) for p in parts), default=0.0)
            + max((self.gc_s.get((t, p), 0.0) for p in parts), default=0.0)
            + self.checkpoint_s.get(t, 0.0)
            + self.recovery_s.get(t, 0.0)
            for t in timesteps
        ]

    def timestep_wall(self, timestep: int) -> float:
        """Fig 6 quantity: total wall time attributed to one timestep."""
        return self._timestep_walls([timestep])[0]

    def timestep_series(self) -> list[float]:
        """Wall time per executed timestep, in timestep order (Fig 6 series)."""
        return self._timestep_walls(sorted(self.supersteps_per_timestep))

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

    def total_gc_s(self) -> float:
        """GC-pause seconds summed over every (timestep, partition)."""
        return sum(self.gc_s.values())

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
            "load_blocked_s": round(self.total_load_s(), 6),
            "gc_s": round(self.total_gc_s(), 6),
            "merge_wall_s": round(self.merge_wall(), 6),
            "checkpoints": self.checkpoints,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_s": round(self.total_checkpoint_s(), 6),
            "retries": self.retries,
            "recovery_s": round(self.total_recovery_s(), 6),
        }
