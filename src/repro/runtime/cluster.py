"""Clusters: collections of compute hosts driven through one protocol.

Every cluster is the same two protocol objects
(:mod:`repro.runtime.protocol`) around a different channel: an
:class:`~repro.runtime.protocol.Agent` per partition executes commands on
its host, and the driver waits for each reply with a
:class:`~repro.runtime.protocol.Gather`.  :class:`Cluster` holds the one
scatter/gather loop over them; a subclass supplies only the channel —
``_send`` a command, ``_receive`` a reply, ``_open`` / ``_close`` one
partition's session.

``LocalCluster`` keeps every agent in the driver process and calls it
directly, in partition order — deterministic scheduling and exact
per-partition timing, and the *simulated* wall-clock (max-over-hosts per
superstep, see :mod:`repro.runtime.metrics`) is what reproduces the paper's
distributed timing figures.  A process-per-partition cluster with genuine
address-space isolation lives in :mod:`repro.runtime.process_cluster`.

Every cluster speaks the same *resilience protocol* on top of the step
protocol: a ``snapshot`` round collects per-partition state blobs for a
checkpoint, ``restore()`` installs them, and ``respawn_worker()`` replaces
one agent with a fresh incarnation (used by recovery after a failure, and
honored by the fault plan's incarnation guard).  A scripted fault means the
same on every executor, because one :class:`Agent` fires it and one
:class:`Gather` repairs what it did to the reply.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Sequence

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..graph.collection import TimeSeriesGraphCollection
from ..observability import NULL_SPAN, Tracer
from ..partition.base import PartitionedGraph
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RecoverableError, RecoveryPolicy
from .cost import CostModel
from .host import (
    ROUND_OPS,
    CollectionInstanceSource,
    HostSpec,
    HostStepResult,
    InstanceSource,
    RunMeta,
    host_op,
)
from .protocol import (
    ACCEPT,
    CLOSE,
    FAIL,
    SEND,
    SLEEP,
    Agent,
    Gather,
    GatherTimeout,
    WorkerError,
    WorkerLost,
)

__all__ = [
    "ROUND_OPS",
    "Cluster",
    "LocalCluster",
    "quarantine_fill",
    "raise_first_failure",
]

#: What a quarantined partition answers to each op that is not a round.
_QUERY_FILL = {"resident": 0, "states": {}, "snapshot": None, "restore": None}


def quarantine_fill(op: str, partition: int):
    """A quarantined partition's synthesized outcome for one ``op``."""
    return HostStepResult.empty(partition) if op in ROUND_OPS else _QUERY_FILL.get(op)


def raise_first_failure(
    outcomes: list[HostStepResult | RecoverableError],
) -> list[HostStepResult]:
    """A :meth:`Cluster.run_round` outcome list with no failure in it.

    Unsupervised callers have nobody to repair a partition, so the first
    captured :class:`RecoverableError` (in partition order) is raised.
    """
    for out in outcomes:
        if isinstance(out, RecoverableError):
            raise out
    return outcomes  # type: ignore[return-value]


class Cluster:
    """The driver's half of the protocol, over a channel a subclass supplies.

    ``gather_timeout_s`` bounds a partition's reply wait in every
    scatter/gather round; ``None`` waits for ever.  ``retry_policy`` (a
    :class:`~repro.resilience.recovery.RecoveryPolicy`) arms the protocol
    retry: a timeout or a corrupt reply is cured by resending the same
    sequence-numbered command — the agent answers from its reply cache — up
    to ``max_retries`` times with the policy's backoff, before the failure
    surfaces.  ``None`` surfaces the first one.  ``fault_plan`` is what each
    partition's :class:`~repro.runtime.protocol.Agent` fires.
    """

    num_partitions: int
    #: Driver-side tracer for the ship / barrier spans of a round.  The
    #: engine sets this after construction when the run is traced.
    driver_tracer: Tracer | None = None
    #: Whether rounds cross a wire: only then do ship / barrier spans show
    #: anything (in-process, the hosts' own spans partition a round).
    _TRACES_ROUNDS = True
    #: Per-partition incarnations — :meth:`respawn_worker` bumps exactly
    #: one.  The fault plan uses them to keep scripted faults from
    #: re-firing after recovery.
    incarnations: list[int]
    #: Partitions torn down by :meth:`quarantine` (degraded runs).
    quarantined: set[int]

    def __init__(
        self,
        pg: PartitionedGraph,
        spec: HostSpec,
        sources: Sequence[InstanceSource],
        fault_plan: FaultPlan | None,
        gather_timeout_s: float | None = None,
        retry_policy: RecoveryPolicy | None = None,
    ) -> None:
        """What every cluster keeps to build, rebuild and drive a partition's host."""
        if len(sources) != pg.num_partitions:
            raise ValueError("need exactly one instance source per partition")
        if gather_timeout_s is not None and gather_timeout_s <= 0:
            raise ValueError("gather_timeout_s must be positive (or None to disable)")
        self._spec = spec
        self._pg = pg
        self._sources = list(sources)
        # One routing array shared by every host, respawned ones included;
        # read-only for the run.
        self._sg_part = np.asarray([sg.partition_id for sg in pg.subgraphs], dtype=np.int64)
        self.fault_plan = fault_plan
        self.gather_timeout_s = gather_timeout_s
        self.retry_policy = retry_policy
        self.num_partitions = pg.num_partitions
        self.incarnations = [0] * pg.num_partitions
        self.quarantined = set()
        #: Next command sequence number, per partition (reset on respawn).
        self._seqs = [0] * pg.num_partitions
        #: Last posted command per partition — what a protocol retry resends.
        self._inflight: list[tuple | None] = [None] * pg.num_partitions
        self._stats = {
            "commands_sent": 0,
            "resends": 0,
            "protocol_retries": 0,
            "duplicate_replies_dropped": 0,
        }
        self._incidents: list[tuple[str, int, float]] = []

    # -- the channel (per cluster) ------------------------------------------------------

    def _open(self, partition: int) -> None:
        """Start ``partition``'s agent session at its current incarnation."""
        raise NotImplementedError

    def _close(self, partition: int) -> None:
        """End ``partition``'s session (respawn or quarantine)."""
        raise NotImplementedError

    def _send(self, partition: int, command: tuple) -> None:
        """Put one command envelope on the channel (``WorkerLost`` if it cannot)."""
        raise NotImplementedError

    def _receive(self, partition: int, deadline: float | None):
        """Take the next reply envelope off the channel.

        Raises :class:`~repro.runtime.protocol.GatherTimeout` when nothing
        arrives before ``deadline`` (a ``time.monotonic`` instant),
        :class:`EOFError` / :class:`OSError` when the session ended, and
        :class:`~repro.runtime.protocol.WorkerError` for a corrupt frame.
        """
        raise NotImplementedError

    # -- scatter/gather over the protocol objects -------------------------------------

    def _window(self) -> float | None:
        """The deadline of a gather window opening now."""
        timeout = self.gather_timeout_s
        return None if timeout is None else time.monotonic() + timeout

    def _post(self, p: int, op: str, replay: bool, timestep: int, superstep: int, payload) -> None:
        """Send one sequence-numbered command to partition ``p``'s agent."""
        seq = self._seqs[p]
        self._seqs[p] = seq + 1
        command = (seq, op, replay, timestep, superstep, payload)
        self._inflight[p] = command
        self._stats["commands_sent"] += 1
        self._send(p, command)

    def _collect(self, p: int, deadline: float | None = None):
        """Gather partition ``p``'s in-flight reply, resending as the
        :class:`~repro.runtime.protocol.Gather` decides.

        ``deadline`` is the *round* deadline: :meth:`run_round` opens one
        window before gathering any partition, so a round's first-attempt
        wait is one ``gather_timeout_s``, not one per partition.  A resend,
        and a caller passing none, opens a fresh window.
        """
        gather = Gather(self._seqs[p] - 1, self.incarnations[p], self.retry_policy, p)
        if deadline is None:
            deadline = self._window()
        try:
            while True:
                try:
                    envelope = self._receive(p, deadline)
                except GatherTimeout:
                    verdict = gather.on_timeout(time.monotonic())
                except (EOFError, OSError) as exc:
                    verdict = gather.on_eof(exc)
                except WorkerError as exc:
                    verdict = gather.on_corrupt(exc, time.monotonic())
                else:
                    verdict = gather.on_reply(envelope, time.monotonic())
                    if verdict is None:
                        continue
                verb, value = verdict
                if verb is ACCEPT:
                    return value
                if verb is FAIL:
                    raise value
                if value > 0:  # RESEND after the policy's backoff
                    time.sleep(value)
                self._send(p, self._inflight[p])
                deadline = self._window()
        finally:
            if gather.dropped or gather.resends:
                stats = self._stats
                stats["resends"] += gather.resends
                stats["duplicate_replies_dropped"] += gather.dropped
                if gather.incident is not None:
                    stats["protocol_retries"] += 1
                    kind, seconds = gather.incident
                    self._incidents.append((kind, p, seconds))

    def run_round(
        self, op: str, timestep: int, superstep: int, payloads: Sequence | None
    ) -> list[HostStepResult | RecoverableError]:
        """Execute one scatter/gather exchange, capturing per-partition failures.

        ``op`` is a key of :data:`~repro.runtime.host.HOST_OPS` (anything
        else is a ``ValueError`` before any host sees it): one of
        :data:`ROUND_OPS` — ``begin`` (payloads = GC pauses), ``superstep``
        / ``merge`` (payloads = per-partition deliveries: coalesced
        ``MessageFrame`` lists, or a plain subgraph-id → messages map for
        direct protocol use; merge rounds pass ``timestep=-1``), ``eot``
        (payloads ignored), whose ``(timestep, superstep)`` is also the
        coordinate scripted faults fire at — or a read-only query:
        ``resident`` (bytes of instance data), ``states`` (the per-subgraph
        state dict) or ``snapshot`` (the checkpoint blob), for which
        ``timestep`` / ``superstep`` only say where the run is — or
        ``restore`` (payloads = checkpoint blobs).
        Each element of the returned list is the partition's result, the
        :class:`RecoverableError` it failed with — survivors finish their
        round and hold at the barrier either way — or a synthesized empty
        answer when quarantined.  Deterministic application errors
        propagate immediately.
        """
        host_op(op)  # an unknown op fails here, before anything is sent
        tr = self.driver_tracer if self._TRACES_ROUNDS else None
        outcomes: list = [None] * self.num_partitions
        pending: list[int] = []
        # Driver-side view of the round: the ship span covers pickling +
        # socket writes, the barrier span the gather (the BSP synchronisation
        # point).
        with NULL_SPAN if tr is None else tr.span("ship"):
            for p in range(self.num_partitions):
                if p in self.quarantined:
                    outcomes[p] = quarantine_fill(op, p)
                    continue
                try:
                    self._post(p, op, False, timestep, superstep,
                               None if payloads is None else payloads[p])
                except RecoverableError as exc:
                    outcomes[p] = exc
                    continue
                pending.append(p)
        with NULL_SPAN if tr is None else tr.span("barrier"):
            deadline = self._window()
            for p in pending:
                try:
                    outcomes[p] = self._collect(p, deadline)
                except RecoverableError as exc:
                    outcomes[p] = exc
        return outcomes

    # -- resilience protocol ---------------------------------------------------------

    def restore(self, snapshots: Sequence[dict]) -> None:
        """Install checkpoint blobs on every partition (``resume_from``)."""
        if len(snapshots) != self.num_partitions:
            raise ValueError("need exactly one snapshot per partition")
        raise_first_failure(self.run_round("restore", -1, -1, snapshots))

    # -- surgical protocol -------------------------------------------------------------
    #
    # What the HostSupervisor needs beyond :meth:`run_round` to respawn,
    # restore, and replay one failed partition individually.

    def step_one(
        self,
        partition: int,
        op: str,
        timestep: int,
        superstep: int,
        payload,
        *,
        replay: bool = False,
    ) -> HostStepResult:
        """Execute one ``run_round`` op on one partition (raises on failure).

        ``replay=True`` marks journal replay on a recovered host: fault
        checks are skipped and instance loads leave no fresh evidence.
        """
        host_op(op)
        self._post(partition, op, replay, timestep, superstep, payload)
        return self._collect(partition)

    def respawn_worker(self, partition: int) -> int:
        """Replace one agent with a fresh (state-empty) incarnation; its
        session, and anything still queued on it, is discarded.

        Returns the partition's new incarnation number.
        """
        self._close(partition)
        self.incarnations[partition] += 1
        self._seqs[partition] = 0
        self._inflight[partition] = None
        self._open(partition)
        return self.incarnations[partition]

    def restore_one(self, partition: int, snapshot: dict) -> None:
        """Install one partition's checkpoint blob on a respawned host."""
        self.step_one(partition, "restore", -1, -1, snapshot)

    def quarantine(self, partition: int) -> None:
        """Tear down one partition permanently: rounds synthesize empty
        results for it and the supervisor drops its inbound deliveries."""
        self.quarantined.add(partition)
        self._close(partition)

    def drain_protocol_incidents(self) -> list[tuple[str, int, float]]:
        """Exchanges a protocol resend cured since the last drain, as
        ``(kind, partition, seconds)``."""
        incidents, self._incidents = self._incidents, []
        return incidents

    def protocol_stats(self) -> dict:
        """Driver↔agent protocol counters (commands, resends, dedup drops, ...)."""
        return dict(self._stats)

    def shutdown(self) -> None:
        """Release resources: subclasses reap their worker processes, then
        call this for the source-held ones (GoFS prefetch threads).
        ``close()`` is reversible — a view lazily recreates its pool on the
        next prefetch — so sources stay usable for a later run."""
        for src in self._sources:
            close = getattr(src, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class LocalCluster(Cluster):
    """In-process cluster: each partition's :class:`Agent` called directly.

    The channel is a queue of the agent's wire actions per partition:
    objects pass by reference, never pickled.  A reply the agent did not
    send is an immediate gather timeout, a ``delay`` is slept inline and
    charged against the gather window, and a closed session reads as EOF —
    so each fault is repaired exactly as on a worker executor.

    Parameters
    ----------
    pg, computation, meta, cost_model, use_combiners:
        The partitioned graph, and what :class:`~repro.runtime.host.HostSpec`
        builds each partition's host from.
    sources:
        One instance source per partition; defaults to each host reading the
        shared ``collection``.
    collection:
        Used to build default sources when ``sources`` is not given.
    tracing:
        When True, every host gets its own observability tracer (one trace
        track per partition) and drains telemetry into protocol replies.
    gather_timeout_s, fault_plan, retry_policy:
        As for every :class:`Cluster`.
    """

    _TRACES_ROUNDS = False

    def __init__(
        self,
        pg: PartitionedGraph,
        computation: TimeSeriesComputation,
        meta: RunMeta,
        *,
        collection: TimeSeriesGraphCollection | None = None,
        sources: Sequence[InstanceSource] | None = None,
        cost_model: CostModel | None = None,
        use_combiners: bool = True,
        tracing: bool = False,
        gather_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RecoveryPolicy | None = None,
    ) -> None:
        if sources is None:
            if collection is None:
                raise ValueError("provide either sources or a collection")
            sources = [CollectionInstanceSource(collection) for _ in range(pg.num_partitions)]
        spec = HostSpec(computation, meta, cost_model or CostModel(), use_combiners, tracing)
        super().__init__(pg, spec, sources, fault_plan, gather_timeout_s, retry_policy)
        self._agents: list[Agent] = [None] * pg.num_partitions  # type: ignore[list-item]
        self._wires: list[deque] = [deque() for _ in range(pg.num_partitions)]
        for p in range(pg.num_partitions):
            self._open(p)

    @property
    def hosts(self) -> list:
        """Each partition's current host."""
        return [agent.host for agent in self._agents]

    def _open(self, partition: int) -> None:
        host = self._spec.build(
            self._pg.partitions[partition], self._sources[partition], self._sg_part
        )
        self._agents[partition] = Agent(host, self.fault_plan, self.incarnations[partition])
        self._wires[partition] = deque()

    def _close(self, partition: int) -> None:
        self._wires[partition].clear()

    def _send(self, partition: int, command: tuple) -> None:
        agent = self._agents[partition]
        if agent.closed:
            raise WorkerLost(f"partition {partition} agent closed its session",
                             partition=partition)
        self._wires[partition].extend(agent.on_command(command))

    def _receive(self, partition: int, deadline: float | None):
        wire = self._wires[partition]
        while wire:
            verb, value = wire.popleft()
            if verb is SEND:
                return value
            if verb is SLEEP:
                # A straggler: the reply comes ``value`` seconds late.  What
                # outlasts the window is still owed by the next read.
                left = None if deadline is None else max(deadline - time.monotonic(), 0.0)
                if left is not None and value > left:
                    time.sleep(left)
                    wire.appendleft((SLEEP, value - left))
                    raise GatherTimeout(f"partition {partition} reply is late")
                time.sleep(value)
                continue
            if verb is CLOSE:
                break
            raise WorkerError(f"partition {partition} sent a corrupt reply frame")
        if self._agents[partition].closed:
            raise EOFError(f"partition {partition} agent closed its session")
        raise GatherTimeout(f"partition {partition} reply was never sent")
