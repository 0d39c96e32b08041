"""Clusters: collections of compute hosts driven through a common protocol.

``LocalCluster`` keeps every host in the driver process and steps them
one after another, in partition order — deterministic scheduling and exact
per-partition timing, and the *simulated* wall-clock (max-over-hosts per
superstep, see :mod:`repro.runtime.metrics`) is what reproduces the paper's
distributed timing figures.  A process-per-partition cluster with genuine
address-space isolation lives in :mod:`repro.runtime.process_cluster`.

Every cluster speaks the same *resilience protocol* on top of the step
protocol: a ``snapshot`` round collects per-partition state blobs for a
checkpoint, ``restore()`` installs them, and ``respawn_worker()`` replaces
one host/worker with a fresh incarnation (used by recovery after a crash,
and honored by the fault plan's incarnation guard).  In-process clusters
*simulate* worker death: a scripted ``kill`` fault raises
:class:`~repro.resilience.recovery.WorkerCrash` instead of taking down an
OS process.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..graph.collection import TimeSeriesGraphCollection
from ..observability import Tracer
from ..partition.base import PartitionedGraph
from ..resilience.faults import AT_BEGIN, NETWORK_FAULT_KINDS, FaultPlan
from ..resilience.recovery import InjectedFault, RecoverableError, WorkerCrash
from .cost import CostModel
from .host import (
    ROUND_OPS,
    CollectionInstanceSource,
    ComputeHost,
    HostSpec,
    HostStepResult,
    InstanceSource,
    RunMeta,
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
    """Protocol base class — see :class:`LocalCluster` for the semantics."""

    num_partitions: int
    #: Driver-side tracer for barrier / frame-shipping spans.  The engine
    #: sets this after construction when the run is traced; ``None`` keeps
    #: the dispatch path untouched.
    driver_tracer: Tracer | None = None
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
    ) -> None:
        """What every cluster keeps to build, and rebuild, a partition's host."""
        if len(sources) != pg.num_partitions:
            raise ValueError("need exactly one instance source per partition")
        self._spec = spec
        self._pg = pg
        self._sources = list(sources)
        # One routing array shared by every host, respawned ones included;
        # read-only for the run.
        self._sg_part = np.asarray([sg.partition_id for sg in pg.subgraphs], dtype=np.int64)
        self.fault_plan = fault_plan
        self.num_partitions = pg.num_partitions
        self.incarnations = [0] * pg.num_partitions
        self.quarantined = set()

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
        raise NotImplementedError

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
        raise NotImplementedError

    def respawn_worker(self, partition: int) -> int:
        """Replace one host/worker with a fresh (state-empty) incarnation.

        Returns the partition's new incarnation number.
        """
        raise NotImplementedError

    def restore_one(self, partition: int, snapshot: dict) -> None:
        """Install one partition's checkpoint blob on a respawned host."""
        self.step_one(partition, "restore", -1, -1, snapshot)

    def quarantine(self, partition: int) -> None:
        """Tear down one partition permanently: rounds synthesize empty
        results for it and the supervisor drops its inbound deliveries."""
        raise NotImplementedError

    def drain_protocol_incidents(self) -> list[tuple[str, int, float]]:
        """Wire-level incidents the retry protocol cured since the last
        drain, as ``(kind, partition, seconds)``.  Only the process
        cluster's sequence-numbered sessions produce these."""
        return []

    def protocol_stats(self) -> dict:
        """Driver↔worker protocol counters (resends, dedup drops, ...)."""
        return {}

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
    """In-process cluster of :class:`ComputeHost` objects.

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
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`.  ``kill``
        raises :class:`~repro.resilience.recovery.WorkerCrash` (the
        in-process stand-in for a dead worker), ``fail_load`` raises
        :class:`~repro.resilience.recovery.InjectedFault` at the
        begin-timestep load, ``delay`` genuinely sleeps the host, and the
        wire kinds are no-ops (there is no wire).
    """

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
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if sources is None:
            if collection is None:
                raise ValueError("provide either sources or a collection")
            sources = [CollectionInstanceSource(collection) for _ in range(pg.num_partitions)]
        spec = HostSpec(computation, meta, cost_model or CostModel(), use_combiners, tracing)
        super().__init__(pg, spec, sources, fault_plan)
        self.hosts = [self._build_host(p) for p in range(pg.num_partitions)]

    def _check_faults(self, timestep: int, superstep: int, host: ComputeHost) -> None:
        """Simulate scripted faults for one host's protocol call."""
        plan = self.fault_plan
        if plan is None:
            return
        p = host.partition.partition_id
        inc = self.incarnations[p]
        if superstep == AT_BEGIN and plan.fire(timestep, AT_BEGIN, p, inc, kinds=("fail_load",)):
            raise InjectedFault(
                f"injected slice-load failure at timestep {timestep} partition {p}",
                partition=p,
            )
        if plan.fire(timestep, superstep, p, inc, kinds=("kill",)):
            raise WorkerCrash(
                f"injected kill fault at timestep {timestep} "
                f"superstep {superstep} partition {p}",
                partition=p,
            )
        spec = plan.fire(timestep, superstep, p, inc, kinds=("delay",))
        if spec is not None:
            time.sleep(plan.delay_for(spec))
        # Wire faults have no wire here: spent as no-ops, keeping plans
        # executor-portable.
        plan.fire(timestep, superstep, p, inc, kinds=NETWORK_FAULT_KINDS)

    # -- round protocol ----------------------------------------------------------------

    def _dispatch(
        self,
        host: ComputeHost,
        op: str,
        timestep: int,
        superstep: int,
        payload,
        replay: bool = False,
    ) -> HostStepResult:
        """One host's share of one exchange (replays and non-rounds skip faults)."""
        if op in ROUND_OPS and not replay:
            self._check_faults(timestep, superstep, host)
        return host.handle(op, timestep, superstep, payload, replay=replay)

    def run_round(
        self, op: str, timestep: int, superstep: int, payloads: Sequence | None
    ) -> list[HostStepResult | RecoverableError]:
        outcomes: list[HostStepResult | RecoverableError] = []
        for p, host in enumerate(self.hosts):
            if p in self.quarantined:
                outcomes.append(quarantine_fill(op, p))
                continue
            payload = payloads[p] if payloads is not None else None
            try:
                outcomes.append(self._dispatch(host, op, timestep, superstep, payload))
            except RecoverableError as exc:
                outcomes.append(exc)
        return outcomes

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
        return self._dispatch(self.hosts[partition], op, timestep, superstep, payload, replay)

    def respawn_worker(self, partition: int) -> int:
        """Rebuild one host from scratch (a simulated single-VM restart)."""
        self.incarnations[partition] += 1
        self.hosts[partition] = self._build_host(partition)
        return self.incarnations[partition]

    def _build_host(self, partition: int) -> ComputeHost:
        return self._spec.build(
            self._pg.partitions[partition], self._sources[partition], self._sg_part
        )

    def quarantine(self, partition: int) -> None:
        self.quarantined.add(partition)
