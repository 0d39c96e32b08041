"""Per-host supervision: the run's one way to recover.

The run never rewinds: one flaky host must not cost the whole cluster a
timestep.  Every run has a :class:`HostSupervisor`, and its
:meth:`~HostSupervisor.round` is the one way the driver reaches its hosts;
it closes the detect→act loop per host:

* every protocol round (``superstep`` / ``eot`` / ``merge``)
  is journaled in the :class:`~repro.resilience.journal.FrameJournal`
  *before* it executes, then issued through the cluster's
  ``run_round`` — which returns a per-partition outcome list instead of
  raising on the first failure, so surviving hosts complete their round
  and hold at the barrier;
* a failed partition is recovered **surgically**: respawn only its
  worker (higher incarnation), restore only its blob from the run's
  replay base (the checkpoint it last wrote or resumed from, else
  genesis-fresh state), silently replay its journaled post-checkpoint
  rounds, then re-issue the in-flight round — the survivors' round
  results are kept, nothing is recorded twice, and results stay
  bit-identical to a fault-free run;
* the exchanges that are not rounds go through the same routine: the
  read-only queries (``snapshot`` / ``resident`` / ``states``) and a
  resume's ``restore``.  They are not journaled — a query does not change
  host state, and a restore *is* the replay base — so a partition that
  dies in one replays its *whole* journal and answers the exchange again
  on its own;
* wire-level misbehavior (the ``drop_frame``/``dup_frame``/``reorder``/
  ``corrupt_frame`` network faults) never reaches this layer at all: the
  cluster's sequence-numbered protocol cures it with an
  idempotent resend, and the supervisor merely drains those *protocol
  incidents* into the failure log and recovery metrics;
* when a partition exhausts its retry budget, the policy decides:
  ``on_exhausted="quarantine"`` tears the partition down, synthesizes
  empty halted rounds for it and drops its inbound deliveries so the run
  completes degraded-but-alive; otherwise :class:`RecoveryExhausted` carries the
  original error to the engine's raise/degrade handling.

Retry accounting: one :class:`~repro.resilience.recovery.FailureRecord`
per failure occurrence with a shared per-round attempt counter, one
``worker_respawn`` / ``protocol_retry`` record per completed recovery —
stated to the run's recorder and kept, the same object, as
``AppResult.recovery_actions`` — and bounded :class:`RecoveryPolicy` backoff
between attempts.  A quarantine is a decision, not a repair: it is the
``action`` of the partition's last failure record.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from ..runtime.cluster import ROUND_OPS, quarantine_fill
from ..runtime.metrics import ProtocolRetryRecord, Record, RespawnRecord
from .checkpoint import CheckpointManager
from .journal import FrameJournal
from .recovery import FailureRecord, RecoverableError, RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import Cluster

__all__ = ["HostSupervisor", "RecoveryExhausted"]


class RecoveryExhausted(RecoverableError):
    """A partition burned its whole retry budget (and is not quarantined).

    Carries the ``original`` failure and the ``timestep`` of the round it
    struck, so the engine can surface the real cause in the structured
    :class:`~repro.resilience.recovery.RunFailure`.
    """

    def __init__(self, original: RecoverableError, timestep: int) -> None:
        super().__init__(str(original), partition=getattr(original, "partition", None))
        self.original = original
        self.timestep = timestep


class HostSupervisor:
    """Issues protocol rounds and recovers failed hosts one at a time.

    Parameters
    ----------
    cluster:
        A cluster speaking the surgical protocol: ``run_round`` (outcome
        list), ``respawn_worker`` / ``restore_one`` / ``step_one`` /
        ``quarantine`` per partition, plus ``drain_protocol_incidents``.
    policy:
        The bounded-retry :class:`RecoveryPolicy` (attempt budget shared
        per round across failures).
    manager:
        Checkpoint manager for partial restores.  Until :meth:`checkpointed`
        names a replay base (and always when ``None``), a freshly respawned
        host *is* the start-of-run state: genesis replay.
    recorder:
        The run's :class:`~repro.observability.RunRecorder`: each completed
        recovery is stated to it once, as a record; what was detected and
        decided on the way is stated as trace events.
    failure_log:
        The run's failure log (``AppResult.failure_log``).
    """

    def __init__(
        self,
        cluster: "Cluster",
        policy: RecoveryPolicy,
        *,
        recorder: Any,
        manager: CheckpointManager | None = None,
        failure_log: list[FailureRecord] | None = None,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        #: The WAL of rounds since :attr:`base`: appended before each round
        #: executes, replayed on a respawned host.
        self.journal = FrameJournal(cluster.num_partitions)
        self.manager = manager
        #: The checkpoint a repair restores from (``None``: genesis).
        self.base: str | None = None
        self.recorder = recorder
        self.failure_log = failure_log if failure_log is not None else []
        #: The repair records stated so far, in order (AppResult provenance).
        self.actions: list[Record] = []
        #: Messages addressed to quarantined partitions that were dropped.
        self.dropped_messages = 0

    # -- wiring -----------------------------------------------------------------------

    def checkpointed(self, name: str) -> None:
        """Checkpoint ``name`` landed, or a resume restored it: it is the new
        replay base, and the journal restarts empty."""
        self.base = name
        self.journal.truncate()

    def _state(self, record: Record) -> None:
        """State one completed repair, once: to the recorder and as provenance."""
        self.recorder.emit(record)
        self.actions.append(record)

    # -- the supervised round ---------------------------------------------------------

    def round(
        self, op: str, timestep: int, superstep: int, payloads: list[Any] | None
    ) -> list[Any]:
        """Journal, execute, and fully recover one ``run_round`` exchange:
        the one way the driver reaches its hosts.

        Returns one result per partition — survivors' from the first
        execution, recovered partitions' from the re-issued exchange,
        quarantined partitions' synthesized empty/halted.  Only
        :data:`ROUND_OPS` are journaled; a query's or a restore's
        ``timestep`` / ``superstep`` say where the run is, for the recovery
        records.
        Raises :class:`RecoveryExhausted` when a partition runs out of
        retries and the policy does not quarantine it; deterministic application errors
        propagate untouched.
        """
        cluster = self.cluster
        quarantined = cluster.quarantined
        if quarantined and payloads is not None and op in ("superstep", "merge"):
            # Deliveries addressed to a dead partition are dropped (and
            # counted): the degraded-result contract, not silent loss.
            payloads = list(payloads)
            for q in quarantined:
                dropped = sum(len(f) for f in payloads[q])
                if dropped:
                    self.dropped_messages += dropped
                    self.recorder.event(
                        "frames_dropped",
                        timestep=timestep,
                        superstep=superstep,
                        partition=q,
                        messages=dropped,
                    )
                payloads[q] = []
        if op in ROUND_OPS:
            self.journal.append(op, timestep, superstep, payloads)
        results = cluster.run_round(op, timestep, superstep, payloads)
        self._drain_protocol_incidents(timestep, superstep)
        attempt = 0  # shared across this round's failures
        for p, out in enumerate(results):
            if isinstance(out, RecoverableError):
                payload = None if payloads is None else payloads[p]
                attempt, results[p] = self._recover_one(
                    p, out, op, timestep, superstep, payload, attempt
                )
        return results

    def _drain_protocol_incidents(self, timestep: int, superstep: int) -> None:
        """Fold wire-level incidents the retry protocol already cured."""
        for kind, p, seconds in self.cluster.drain_protocol_incidents():
            self.failure_log.append(
                FailureRecord(
                    kind=kind,
                    timestep=timestep,
                    superstep=superstep,
                    partition=p,
                    attempt=1,
                    error=f"idempotent protocol resend cured a {kind}",
                    action="retry",
                )
            )
            self._state(ProtocolRetryRecord(timestep, superstep, p, seconds, kind))

    # -- surgical recovery ------------------------------------------------------------

    def _recover_one(
        self,
        p: int,
        exc: RecoverableError,
        op: str,
        timestep: int,
        superstep: int,
        payload: Any,
        attempt: int,
    ) -> tuple[int, Any]:
        """Recover partition ``p``'s in-flight exchange; loops on re-failure."""
        policy = self.policy
        cluster = self.cluster
        while True:
            attempt += 1
            kind = type(exc).__name__
            self.recorder.event(
                "worker_lost",
                error=kind,
                timestep=timestep,
                superstep=superstep,
                partition=p,
                attempt=attempt,
            )
            exhausted = attempt > policy.max_retries
            action = policy.on_exhausted if exhausted else "retry"
            self.failure_log.append(
                FailureRecord(
                    kind=kind,
                    timestep=timestep,
                    superstep=superstep,
                    partition=p,
                    attempt=attempt,
                    error=str(exc),
                    action=action,
                )
            )
            if exhausted:
                if action == "quarantine":
                    # Give up on ``p`` but keep the run alive: degraded, not dead.
                    cluster.quarantine(p)
                    self.recorder.quarantined(timestep, superstep, p, attempt, kind)
                    return attempt, quarantine_fill(op, p)
                raise RecoveryExhausted(exc, timestep) from exc
            backoff = policy.backoff_for(attempt)
            self.recorder.event(
                "retry", timestep=timestep, partition=p, attempt=attempt, backoff_s=backoff
            )
            if backoff > 0:
                time.sleep(backoff)
            started = time.perf_counter()
            entries = self.journal.entries_for(p)
            if op in ROUND_OPS:
                # The tail entry is the in-flight round itself (journaled
                # pre-execution); everything before it is committed work
                # the respawned host silently replays.
                entries.pop()
            try:
                incarnation = cluster.respawn_worker(p)
                if self.base is not None:
                    cluster.restore_one(p, self.manager.load(self.base, partitions=(p,)).parts[p])
                # else: the fresh host *is* the genesis state; the journal
                # holds every round since (it is never truncated before the
                # first checkpoint).
                for entry in entries:
                    cluster.step_one(
                        p, entry.op, entry.timestep, entry.superstep, entry.payload, replay=True
                    )
            except RecoverableError as again:
                exc = again
                continue
            seconds = time.perf_counter() - started
            survivors = cluster.num_partitions - len(cluster.quarantined) - 1
            self._state(
                RespawnRecord(
                    timestep, superstep, p, attempt, seconds, incarnation, len(entries),
                    survivors, kind,
                )
            )
            try:
                return attempt, cluster.step_one(p, op, timestep, superstep, payload)
            except RecoverableError as again:
                exc = again
                continue
