"""Per-host supervision: the run's one way to recover.

The run never rewinds: one flaky host must not cost the whole cluster a
timestep.  Every run has a :class:`HostSupervisor`, and its
:meth:`~HostSupervisor.round` is the one way the driver reaches its hosts;
it closes the detect→act loop per host:

* every protocol round (``superstep`` / ``eot`` / ``merge``)
  is journaled in :attr:`HostSupervisor.rounds` *before* it executes,
  then issued through the cluster's
  ``run_round`` — which returns a per-partition outcome list instead of
  raising on the first failure, so surviving hosts complete their round
  and hold at the barrier;
* a failed partition climbs one ladder, and only the supervisor climbs it
  (the cluster gathers each reply once and never resends on its own):

  1. a live agent that timed out (:class:`GatherTimeout`) or sent a reply
     frame that does not decode (:class:`CorruptReply`) is resent its
     in-flight command once — its reply cache answers, so nothing runs
     twice.  This cures the wire faults (``drop_frame`` /
     ``corrupt_frame``, a short ``delay``);
  2. any other failure, or a resend that failed too, is repaired
     **surgically**: respawn only its worker (higher incarnation), restore
     only its blob from the run's replay base (the checkpoint it last
     wrote or resumed from, else genesis-fresh state), silently replay its
     journaled post-checkpoint rounds, then re-issue the in-flight round —
     the survivors' round results are kept, nothing is recorded twice, and
     results stay bit-identical to a fault-free run;

* the exchanges that are not rounds go through the same routine: the
  read-only queries (``snapshot`` / ``resident`` / ``states``) and a
  resume's ``restore``.  They are not journaled — a query does not change
  host state, and a restore *is* the replay base — so a partition that
  dies in one replays its *whole* journal and answers the exchange again
  on its own;
* every rung is one attempt of the round's budget
  (:attr:`RecoveryPolicy.max_retries`, shared by every partition that
  fails in the round), but a resend that cures the exchange gives its
  attempt back: a round with a wire incident on every partition completes
  on resends alone, and only a failed resend or a repair spends budget.
  A resend is tried only while the round has budget left.  Past it the
  policy decides:
  ``on_exhausted="quarantine"`` tears the partition down, synthesizes
  empty halted rounds for it and drops its inbound deliveries so the run
  completes degraded-but-alive; otherwise :class:`RecoveryExhausted`
  carries the original error to the engine's raise/degrade handling.

Retry accounting: one :class:`~repro.runtime.metrics.FailureRecord` per
failure occurrence with the shared per-round attempt counter, and one
``protocol_retry`` (a cured resend) or ``worker_respawn`` record per
completed recovery — each stated once, to the run's recorder, whose
collector keeps them as ``AppResult.failure_log`` and
``AppResult.recovery_actions`` — and bounded :class:`RecoveryPolicy`
backoff before each attempt.  A quarantine is a decision, not a repair: it
is the ``action`` of the partition's last failure record.

The journal (:attr:`HostSupervisor.rounds`) is the driver's write-ahead log
for host repair.  A checkpoint alone cannot rebuild a partition: its state
also depends on every round it executed since, including the inbound
:class:`~repro.core.messages.MessageFrame` deliveries those rounds carried.
So the journal holds the ordered rounds since the replay base, each as
``(op, timestep, superstep, payloads)`` with the per-partition payload list
it shipped (``None`` for ``eot``).  Its lifecycle:

* append — once per round, before the round executes (a retry of the same
  round never re-appends), so at any failure the tail is the in-flight
  round and everything before it committed work a respawned host replays;
* clear — at every durable checkpoint write and at a resume
  (:meth:`HostSupervisor.checkpointed`): the checkpoint is the new replay
  base.

Only the recovered partition re-executes; replay results (outputs, frames,
halt votes, telemetry) are discarded — the driver committed them when the
round first completed.  An append stores one tuple and holds the payload
list by reference, which relies on frames being immutable after
:meth:`~repro.core.messages.MessageFrame.pack`; a partition's entries are
built only when a repair asks for them.  What the journal costs is memory:
it keeps every frame it delivered alive until the next checkpoint clears
it, so a run without checkpoints holds all of its remote frames to the end
— about 4 kB on a 200k-vertex TDSP run, 1 MB on a 200k-vertex MEME run over
WIKI (``bytes_sent``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from ..runtime.cluster import ROUND_OPS, quarantine_fill
from ..runtime.metrics import FailureRecord, ProtocolRetryRecord, RespawnRecord
from ..runtime.protocol import CorruptReply, GatherTimeout
from .recovery import RecoverableError, RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import Cluster
    from .checkpoint import CheckpointManager

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
        list), ``resend`` / ``respawn_worker`` / ``restore_one`` /
        ``step_one`` / ``quarantine`` per partition.
    policy:
        The bounded-retry :class:`RecoveryPolicy` (attempt budget shared
        per round across failures).
    manager:
        Checkpoint manager for partial restores.  Until :meth:`checkpointed`
        names a replay base (and always when ``None``), a freshly respawned
        host *is* the start-of-run state: genesis replay.
    recorder:
        The run's :class:`~repro.observability.RunRecorder`: each failure
        handled and each completed recovery is stated to it once, as a
        record.
    """

    def __init__(
        self,
        cluster: "Cluster",
        policy: RecoveryPolicy,
        *,
        recorder: Any,
        manager: CheckpointManager | None = None,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        #: The journal: ``(op, timestep, superstep, payloads)`` per round since
        #: :attr:`base`, oldest first, appended before the round executes and
        #: replayed on a respawned host.
        self.rounds: list[tuple[str, int, int, list[Any] | None]] = []
        self.manager = manager
        #: The checkpoint a repair restores from (``None``: genesis).
        self.base: str | None = None
        self.recorder = recorder
        #: Messages addressed to quarantined partitions that were dropped.
        self.dropped_messages = 0

    # -- wiring -----------------------------------------------------------------------

    def checkpointed(self, name: str) -> None:
        """Checkpoint ``name`` landed, or a resume restored it: it is the new
        replay base, and the journal restarts empty."""
        self.base = name
        self.rounds.clear()

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
            self.rounds.append((op, timestep, superstep, payloads))
        results = cluster.run_round(op, timestep, superstep, payloads)
        attempt = 0  # shared across this round's failures
        for p, out in enumerate(results):
            if isinstance(out, RecoverableError):
                payload = None if payloads is None else payloads[p]
                attempt, results[p] = self._recover_one(
                    p, out, op, timestep, superstep, payload, attempt
                )
        return results

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
        """Recover partition ``p``'s in-flight exchange, one rung per
        attempt: a resend first when the agent is alive, else (and after a
        failed resend) a repair, which loops on re-failure.  A resend that
        cures the exchange gives its attempt back."""
        policy = self.policy
        cluster = self.cluster
        resend = isinstance(exc, (GatherTimeout, CorruptReply))
        while True:
            attempt += 1
            error = type(exc).__name__
            exhausted = attempt > policy.max_retries
            action = policy.on_exhausted if exhausted else "retry"
            self.recorder.emit(
                FailureRecord(timestep, superstep, p, attempt, error, str(exc), action)
            )
            if exhausted:
                if action == "quarantine":
                    # Give up on ``p`` but keep the run alive: degraded, not dead.
                    cluster.quarantine(p)
                    self.recorder.quarantined(timestep, superstep, p, attempt, error)
                    return attempt, quarantine_fill(op, p)
                raise RecoveryExhausted(exc, timestep) from exc
            backoff = policy.backoff_for(attempt)
            if backoff > 0:
                time.sleep(backoff)
            started = time.perf_counter()
            if resend:
                resend = False
                try:
                    result = cluster.resend(p)
                except RecoverableError as again:
                    exc = again
                    continue
                seconds = time.perf_counter() - started
                self.recorder.emit(ProtocolRetryRecord(timestep, superstep, p, seconds, error))
                # A cure gives its attempt back: only a failed resend spends
                # the round's budget.
                return attempt - 1, result
            # A round's journal tail is the in-flight round itself (journaled
            # pre-execution); everything before it is committed work the
            # respawned host silently replays, as partition p received it.
            committed = self.rounds[:-1] if op in ROUND_OPS else self.rounds
            entries = [(o, t, s, None if ps is None else ps[p]) for o, t, s, ps in committed]
            try:
                incarnation = cluster.respawn_worker(p)
                if self.base is not None:
                    cluster.restore_one(p, self.manager.load(self.base, partitions=(p,)).parts[p])
                # else: the fresh host *is* the genesis state; the journal
                # holds every round since (it is never cleared before the
                # first checkpoint).
                for entry in entries:
                    cluster.step_one(p, *entry, replay=True)
            except RecoverableError as again:
                exc = again
                continue
            seconds = time.perf_counter() - started
            survivors = cluster.num_partitions - len(cluster.quarantined) - 1
            self.recorder.emit(
                RespawnRecord(
                    timestep, superstep, p, attempt, seconds, incarnation, len(entries),
                    survivors, error,
                )
            )
            try:
                return attempt, cluster.step_one(p, op, timestep, superstep, payload)
            except RecoverableError as again:
                exc = again
                # The fresh agent is live: it earns its own resend.
                resend = isinstance(again, (GatherTimeout, CorruptReply))
                continue
