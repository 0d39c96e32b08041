"""Fault-tolerance plane: checkpointing, fault injection, and recovery.

TI-BSP's barriered structure gives clean durable boundaries — the end of a
superstep and the end of a timestep — exactly where Pregel-lineage systems
(GoFFish, Giraph) checkpoint.  This package supplies the three pillars the
engine wires together:

* :mod:`~repro.resilience.checkpoint` — GoFS-style checkpoint directories
  (per-partition state blobs + a hashed manifest) written at boundaries and
  restored by ``TIBSPEngine.run(resume_from=...)`` or, one partition at
  a time, by in-run host repair;
* :mod:`~repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` that kills workers, drops/corrupts wire replies,
  delays stragglers, and fails slice loads at scripted
  ``(timestep, superstep, partition)`` coordinates;
* :mod:`~repro.resilience.recovery` — the failure taxonomy
  (:class:`RecoverableError` vs application errors), the bounded-retry
  :class:`RecoveryPolicy`, and the structured :class:`RunFailure` surfaced
  when retries are exhausted instead of hanging the driver;
* :mod:`~repro.resilience.journal` — the driver-side
  :class:`FrameJournal` WAL of post-checkpoint protocol rounds that makes
  single-partition restores replayable;
* :mod:`~repro.resilience.supervisor` — the :class:`HostSupervisor` that
  recovers failed hosts *surgically* (respawn one worker, restore one
  partition, replay its journal) while healthy hosts hold at the barrier,
  with quarantine-based graceful exhaustion; each completed repair is one
  ``worker_respawn`` / ``protocol_retry`` record.
"""

from .checkpoint import CheckpointConfig, CheckpointCorrupt, CheckpointInfo, CheckpointManager
from .faults import (
    AT_EOT,
    FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    parse_fault_specs,
)
from .journal import FrameJournal, JournalEntry
from .supervisor import HostSupervisor, RecoveryExhausted
from .recovery import (
    FailureRecord,
    InjectedFault,
    RecoverableError,
    RecoveryPolicy,
    RunFailure,
    RunFailureError,
)

__all__ = [
    "CheckpointConfig",
    "CheckpointCorrupt",
    "CheckpointInfo",
    "CheckpointManager",
    "AT_EOT",
    "FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "parse_fault_specs",
    "FrameJournal",
    "JournalEntry",
    "HostSupervisor",
    "RecoveryExhausted",
    "FailureRecord",
    "InjectedFault",
    "RecoverableError",
    "RecoveryPolicy",
    "RunFailure",
    "RunFailureError",
]
