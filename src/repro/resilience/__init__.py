"""Fault-tolerance plane: checkpointing, fault injection, and recovery.

TI-BSP's barriered structure gives clean durable boundaries — the end of a
superstep and the end of a timestep — exactly where Pregel-lineage systems
(GoFFish, Giraph) checkpoint.  This package supplies the three pillars the
engine wires together:

* :mod:`~repro.resilience.checkpoint` — GoFS-style checkpoint directories
  (per-partition state blobs + a hashed manifest) written at boundaries and
  restored by ``TIBSPEngine.run(resume_from=...)`` or, one partition at
  a time, by in-run host repair;
* :mod:`~repro.resilience.faults` — a deterministic
  :class:`FaultPlan` that kills workers, drops/corrupts wire replies,
  delays stragglers, and fails slice loads at scripted
  ``(timestep, superstep, partition)`` coordinates;
* :mod:`~repro.resilience.recovery` — the failure taxonomy
  (:class:`RecoverableError` vs application errors), the bounded-retry
  :class:`RecoveryPolicy`, and the structured :class:`RunFailure` surfaced
  when retries are exhausted instead of hanging the driver;
* :mod:`~repro.resilience.supervisor` — the :class:`HostSupervisor`, the
  one place a failed exchange is decided: a live agent's command is resent
  once, any other failure recovers the host *surgically* (respawn one
  worker, restore one partition, replay its journal) while healthy hosts
  hold at the barrier,
  with quarantine-based graceful exhaustion, and its journal of
  post-checkpoint protocol rounds makes single-partition restores
  replayable; each failure it handles is one
  ``failure`` record (:class:`FailureRecord`), and each completed repair one
  ``worker_respawn`` / ``protocol_retry`` record.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".checkpoint": (
        "CheckpointConfig", "CheckpointCorrupt", "CheckpointInfo", "CheckpointManager",
    ),
    ".faults": (
        "AT_EOT", "FAULT_KINDS", "NETWORK_FAULT_KINDS", "FaultPlan", "FaultSpec", "parse_fault_specs",
    ),
    ".supervisor": ("HostSupervisor", "RecoveryExhausted"),
    "..runtime.metrics": ("FailureRecord",),
    ".recovery": (
        "InjectedFault", "RecoverableError", "RecoveryPolicy", "RunFailure", "RunFailureError",
    ),
})
