"""The TI-BSP engine: timesteps (outer loop) × supersteps (inner loop).

Section II-D: a TI-BSP application is a set of BSP iterations, each called a
*timestep* because it operates on one graph instance; within a timestep the
subgraph-centric BSP runs barriered *supersteps*.  The execution order of
timesteps and the messaging between them realizes the design pattern:

* **sequentially dependent** — timesteps run strictly in order; temporal
  messages collected during timestep *t* are delivered at superstep 0 of
  timestep *t+1*;
* **independent** — each timestep's BSP runs exactly once with the
  application inputs; no temporal messages;
* **eventually dependent** — like independent, plus a Merge BSP after the
  last timestep that receives everything sent via ``send_to_merge``.

Timestep ranges behave like the paper's For loop (fixed range of instances)
or While loop: the run ends early when every subgraph voted
``vote_to_halt_timestep`` during some timestep *and* no temporal messages
were emitted in it.

Fault tolerance (the resilience plane)
--------------------------------------
The barrier that closes a timestep doubles as the one durable boundary.
When ``EngineConfig.checkpoint`` is set, the engine snapshots every
partition's host state plus its own driver state (buffered temporal frames,
outputs, metrics) into a :class:`~repro.resilience.checkpoint.CheckpointManager`
directory at the end of a timestep; a run resumes there, and a failure
inside a timestep is repaired by journal replay from it.  When a
*recoverable* failure surfaces — a dead worker process, a wedged gather, a
corrupt reply, an injected fault — there is one way to recover, and
every run has it.  A :class:`~repro.resilience.supervisor.HostSupervisor`
issues every driver→worker exchange, journals the protocol rounds in its
:class:`~repro.resilience.journal.FrameJournal`, and repairs a failed host
in place: respawn only its worker at a higher incarnation, restore only its
partition from the checkpoint this run last wrote or resumed from (or
genesis-fresh state), silently replay its journaled rounds, and re-issue
the in-flight exchange while the survivors hold at the barrier.  The run
itself never rewinds.  Wire-level trouble (dropped, duplicated, reordered,
corrupted replies; wedged gathers) is cured a layer below, on every
executor, by the sequence-numbered idempotent resend protocol
(:mod:`repro.runtime.protocol`) and surfaces only as *protocol incidents*
in the failure log.  When a partition exhausts
its retry budget under ``RecoveryPolicy(on_exhausted="quarantine")``, it is
quarantined and the run completes degraded, named in
``AppResult.degraded_partitions``; the repairs that did complete are
``AppResult.recovery_actions``.

Retries are bounded per round by ``EngineConfig.recovery``, a
:class:`~repro.resilience.recovery.RecoveryPolicy` (``RecoveryPolicy()``
unless given); when they run out the run surfaces a structured
:class:`~repro.resilience.recovery.RunFailure` instead of hanging.
Deterministic application errors are never retried.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from ..graph.collection import TimeSeriesGraphCollection
from ..observability import RunRecorder, RunTrace
from ..partition.base import PartitionedGraph
from ..resilience.checkpoint import CheckpointConfig, CheckpointManager
from ..resilience.faults import AT_EOT, FaultPlan
from ..resilience.recovery import RecoveryPolicy, RunFailure, RunFailureError
from ..resilience.supervisor import HostSupervisor, RecoveryExhausted
from ..runtime.cluster import Cluster
from ..runtime.cost import CostModel
from ..runtime.gc_model import GCModel
from ..runtime.host import CollectionInstanceSource, HostStepResult, InstanceSource, RunMeta
from ..runtime.metrics import (
    PHASE_COMPUTE,
    PHASE_MERGE,
    CheckpointRecord,
    GcRecord,
    LoadRecord,
    MetricsCollector,
    StepRecord,
)
from .computation import TimeSeriesComputation
from .messages import Message, MessageFrame, MessageKind, frames_from_deliveries, route_frames
from .patterns import Pattern
from .results import AppResult

__all__ = ["EXECUTORS", "EngineConfig", "TIBSPEngine", "run_application"]

#: Gather timeout applied on every executor when fault injection is on but
#: the user did not configure one: ``drop_frame``/``delay`` faults must
#: surface as detected failures, not infinite barriers.
_DEFAULT_FAULT_GATHER_TIMEOUT_S = 10.0

#: The executors ``EngineConfig.executor`` may name.
EXECUTORS = ("serial", "process", "socket")


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    Attributes
    ----------
    executor:
        ``"serial"`` (default), ``"process"`` (partition 0 in the driver,
        one forked worker agent for each other partition), or ``"socket"``
        (every partition on the ``hosts`` agents when given, else placed as
        ``"process"``); anything else is a ``ValueError`` from ``run``.
    cost_model:
        Communication cost model for the simulated wall-clock.
    gc_model:
        GC pause model (disabled by default; Fig 6 benches enable it).
    max_supersteps:
        Safety bound per timestep BSP (and for the merge BSP).
    tracing:
        Falsy (default, a strict no-op), ``True``, or a
        :class:`~repro.observability.TraceConfig`.  When set, the run
        records spans, structured events, and counters across the driver
        and every host (worker telemetry is marshalled back with protocol
        replies) and attaches a :class:`~repro.observability.RunTrace` to
        the result as ``result.trace`` — exportable to Perfetto and the
        JSONL event log.  Tracing only observes: engine results are
        bit-identical with it on or off.  ``TraceConfig(stream_dir=D)``
        streams the event log to ``D/events.jsonl`` round by round; a
        running or finished run is watched by folding that file
        (``tibsp top D``).
    checkpoint:
        Optional :class:`~repro.resilience.checkpoint.CheckpointConfig`.
        When set, timestep-boundary snapshots are written on the configured
        cadence; ``run(resume_from=...)`` restarts from them and host
        repair restores the failed partition from the one this run last
        wrote or resumed from.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` of scripted,
        deterministic failures (testing/bench use), repaired like any other
        failure under ``recovery``.
    recovery:
        The :class:`~repro.resilience.recovery.RecoveryPolicy` bounding
        host-repair and protocol-resend retries on every run (default
        ``RecoveryPolicy()``: two retries per round, then raise).
    gather_timeout_s:
        Bound on a partition's reply wait per scatter/gather round.
        ``None`` (default) waits for ever, except that fault injection
        substitutes a 10 s default so dropped replies surface as
        ``GatherTimeout``.
    hosts:
        Addresses (``"host:port"`` strings or ``(host, port)`` pairs) of
        pre-started ``tibsp worker`` agents, one per partition; only the
        socket executor takes them (anything else is a ``ValueError`` from
        ``run``).  ``None`` (default) places partitions as process does.
    """

    executor: str = "serial"
    cost_model: CostModel = field(default_factory=CostModel)
    gc_model: GCModel = field(default_factory=GCModel.disabled)
    max_supersteps: int = 100_000
    tracing: object | None = None
    checkpoint: CheckpointConfig | None = None
    faults: FaultPlan | None = None
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    gather_timeout_s: float | None = None
    hosts: tuple | None = None


@dataclass
class _RunState:
    """What one ``run()`` sets up once and every helper below works on.

    Nothing here is rebound once the timestep loop starts: the run never
    rewinds, so the collector, the buffered frames and the inputs a helper
    sees are the ones the run ends with.
    """

    pattern: Pattern
    start: int
    stop: int
    result: AppResult
    #: The run's one writer of facts: collector and trace.
    recorder: RunRecorder
    manager: CheckpointManager | None
    #: Application inputs, grouped per subgraph.
    input_msgs: dict[int, list[Message]]
    #: Remote temporal sends buffered between timesteps, still framed;
    #: same-partition temporal sends never leave their host.
    temporal_frames: list[MessageFrame] = field(default_factory=list)
    cluster: Cluster | None = None
    #: The one way to the hosts: every exchange is ``supervisor.round``.
    supervisor: HostSupervisor | None = None


class TIBSPEngine:
    """Runs :class:`~repro.core.computation.TimeSeriesComputation` applications.

    Parameters
    ----------
    pg:
        The partitioned graph (topology + subgraph decomposition).
    collection:
        The time-series graph collection to iterate over.
    config:
        Engine configuration.
    sources:
        Optional per-partition instance sources (e.g. GoFS views).  Every
        executor defaults to one source over ``collection`` per partition;
        a forked agent inherits its source, a ``hosts`` agent receives it
        in its ``init`` handshake.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        collection: TimeSeriesGraphCollection,
        config: EngineConfig | None = None,
        sources: Sequence[InstanceSource] | None = None,
    ) -> None:
        self.pg = pg
        self.collection = collection
        self.config = config or EngineConfig()
        self.sources = sources
        # A source that knows what it was written for (a GoFS view) is held
        # to this run's dataset, once, before anything is built.
        checks = [src.check_dataset for src in sources or () if hasattr(src, "check_dataset")]
        if checks:
            fingerprint = pg.fingerprint(len(collection))
            for check in checks:
                check(fingerprint)
        self._sg_part = np.asarray([sg.partition_id for sg in pg.subgraphs], dtype=np.int64)
        self._all_sgids = frozenset(sg.subgraph_id for sg in pg.subgraphs)

    # -- cluster construction ------------------------------------------------------

    def _make_cluster(
        self, computation: TimeSeriesComputation, meta: RunMeta, tracing: bool
    ) -> Cluster:
        cfg = self.config
        gather_timeout = cfg.gather_timeout_s
        if gather_timeout is None and cfg.faults is not None:
            gather_timeout = _DEFAULT_FAULT_GATHER_TIMEOUT_S
        sources = self.sources
        if sources is None:
            sources = [CollectionInstanceSource(self.collection)
                       for _ in range(self.pg.num_partitions)]
        return Cluster(
            self.pg, computation, meta, sources,
            remote=cfg.executor != "serial",
            hosts=cfg.hosts,
            cost_model=cfg.cost_model,
            tracing=tracing,
            gather_timeout_s=gather_timeout,
            fault_plan=cfg.faults,
            # Bounded idempotent resends cure drops/corruption/timeouts
            # below host repair.
            retry_policy=cfg.recovery,
        )

    @staticmethod
    def _as_input_messages(inputs: Iterable[tuple[int, Any]] | None) -> dict[int, list[Message]]:
        grouped: dict[int, list[Message]] = {}
        for sgid, payload in inputs or ():
            grouped.setdefault(int(sgid), []).append(
                Message(payload, None, -1, MessageKind.APP_INPUT)
            )
        return grouped

    # -- main entry ----------------------------------------------------------------------

    def run(
        self,
        computation: TimeSeriesComputation,
        inputs: Iterable[tuple[int, Any]] | None = None,
        timestep_range: tuple[int, int] | None = None,
        resume_from: str | bool | None = None,
    ) -> AppResult:
        """Execute ``computation`` over the collection.

        Parameters
        ----------
        computation:
            The TI-BSP application.
        inputs:
            Application input messages as ``(subgraph_id, payload)`` pairs.
            Sequentially dependent: delivered at superstep 0 of the first
            timestep.  Independent / eventually dependent: delivered at
            superstep 0 of *every* timestep (there is no notion of a
            previous instance — Section II-D).
        timestep_range:
            Half-open ``(start, stop)`` range of timesteps; defaults to the
            whole collection (the paper's For-loop mode over ``ti..tj``).
        resume_from:
            Restart from a durable checkpoint instead of the beginning:
            ``True`` resumes from the latest complete checkpoint under
            ``EngineConfig.checkpoint.dir``, a string names a specific
            checkpoint directory.  The driver state stored in the
            checkpoint (including inputs and metrics) takes precedence
            over ``inputs``.
        """
        pattern = computation.pattern
        cfg = self.config
        start, stop = timestep_range or (0, len(self.collection))
        if not 0 <= start <= stop <= len(self.collection):
            raise ValueError(f"timestep range [{start}, {stop}) out of bounds")
        if cfg.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {cfg.executor!r}: choose one of {', '.join(EXECUTORS)}"
            )
        if cfg.hosts is not None and cfg.executor != "socket":
            raise ValueError(
                "hosts name worker agents, which only the socket executor dials; "
                f"the {cfg.executor} executor would ignore them"
            )
        if resume_from is not None and cfg.checkpoint is None:
            raise ValueError(
                "resume_from requires EngineConfig.checkpoint (it names the "
                "directory holding the checkpoints)"
            )

        meta = RunMeta(
            pattern=pattern,
            num_timesteps=stop,
            delta=self.collection.delta,
            t0=self.collection.t0,
        )
        metrics = MetricsCollector(
            self.pg.num_partitions, barrier_s=cfg.cost_model.barrier_cost(self.pg.num_partitions)
        )
        trace = RunTrace() if cfg.tracing else None
        result = AppResult(metrics=metrics, trace=trace)
        rs = _RunState(
            pattern=pattern,
            start=start,
            stop=stop,
            result=result,
            recorder=RunRecorder(metrics, trace),
            manager=None if cfg.checkpoint is None else CheckpointManager(
                cfg.checkpoint.dir,
                retain=cfg.checkpoint.retain,
                # A checkpoint is restored only into a run of this shape.
                signature={"num_partitions": self.pg.num_partitions,
                           "num_subgraphs": len(self.pg.subgraphs), "pattern": pattern.name},
            ),
            input_msgs=self._as_input_messages(inputs),
        )
        t = start
        # The stream, cluster and supervisor are created inside the try so
        # the finally tears them down on *every* exit path — including
        # failures during cluster spawn or resume (a leaked worker agent
        # outlives the run otherwise).
        try:
            stream_dir = getattr(cfg.tracing, "stream_dir", None)
            if stream_dir is not None:
                trace.open_stream(stream_dir)
            # The log says what it is a log of before anything runs.
            rs.recorder.event(
                "run_begin",
                num_partitions=self.pg.num_partitions,
                start=start,
                stop=stop,
                pattern=pattern.name,
                executor=cfg.executor,
                barrier_s=metrics.barrier_s,
            )
            rs.recorder.flush()
            rs.cluster = self._make_cluster(computation, meta, trace is not None)
            # Every driver→worker exchange goes through the supervisor, which
            # journals the rounds and repairs single-host failures in place
            # while the survivors hold at the barrier.
            rs.supervisor = HostSupervisor(
                rs.cluster,
                cfg.recovery,
                manager=rs.manager,
                recorder=rs.recorder,
                failure_log=result.failure_log,
            )
            if trace is not None:
                rs.cluster.driver_tracer = trace.tracer

            try:
                if resume_from is not None:
                    t = self._resume(rs, resume_from)
                while t < stop:
                    with rs.recorder.span("timestep", t=t):
                        halted_early = self._run_timestep(rs, t)
                    result.timesteps_executed += 1
                    if rs.manager is not None and (t - start + 1) % cfg.checkpoint.every == 0:
                        self._write_checkpoint(rs, t)
                    t += 1
                    if halted_early:
                        # Only count as early when timesteps actually remained.
                        result.halted_early = t < stop
                        break
                if pattern.has_merge:
                    self._run_merge(rs)
                for part in rs.supervisor.round("states", -1, AT_EOT, None):
                    result.states.update(part)
            except RecoveryExhausted as exc:
                # The supervisor burned the whole per-round budget on one
                # partition: degrade to the partial result or raise.
                failure = RunFailure(
                    reason=f"{type(exc.original).__name__}: {exc.original}",
                    timestep=exc.timestep,
                    failure_log=list(result.failure_log),
                )
                result.failure = failure
                if cfg.recovery.on_exhausted == "raise":
                    raise RunFailureError(failure, partial=result) from exc.original
        finally:
            cluster, supervisor = rs.cluster, rs.supervisor
            # The log's last word: a reader of it tells a finished run from
            # a stalled one.
            rs.recorder.event("run_end", timesteps_executed=result.timesteps_executed)
            if cluster is not None:
                # Provenance — the repair records, the partitions given up
                # on — attached even when the run exits abnormally.  The
                # supervisor is built with the cluster, before anything runs.
                result.recovery_actions = list(supervisor.actions)
                result.degraded_partitions = sorted(cluster.quarantined)
                stats = cluster.protocol_stats()
                if supervisor.dropped_messages:
                    stats["dropped_to_quarantined"] = supervisor.dropped_messages
                result.protocol_stats = stats
                cluster.shutdown()
            if trace is not None:
                # Flush the streamed event-log tail (valid JSONL even when
                # the run died mid-timestep) and fold the driver tracer in.
                trace.close_stream()
                trace.finish()
        return result

    # -- resilience plumbing ---------------------------------------------------------

    @staticmethod
    def _resume(rs: _RunState, resume_from: str | bool) -> int:
        """Install a durable checkpoint's driver and host state before the loop.

        Returns the timestep to enter: the one after the timestep the
        checkpoint closed.
        """
        name = rs.manager.latest_name() if resume_from is True else resume_from
        loaded = rs.manager.load(name)
        blob = loaded.driver
        result = rs.result
        # The run continues on the collector the checkpoint carried.
        result.metrics = rs.recorder.metrics = blob["metrics"]
        rs.input_msgs = blob["input_msgs"]
        rs.temporal_frames[:] = blob["temporal_frames"]
        result.outputs[:] = blob["outputs"]
        result.merge_outputs[:] = blob["merge_outputs"]
        result.timesteps_executed = blob["timesteps_executed"]
        t = blob["next_t"]
        rs.supervisor.round("restore", t, 0, loaded.parts)
        rs.supervisor.checkpointed(name)
        rs.recorder.event(
            "restore", timestep=t, seconds=0.0, resumed=True, checkpoint=loaded.meta.get("seq")
        )
        return t

    def _write_checkpoint(self, rs: _RunState, t: int) -> None:
        """Snapshot cluster + driver state into one durable checkpoint
        closing timestep ``t``; a resumed run enters at ``t + 1``.

        Skipped while any partition is quarantined — before the snapshot, or
        by it: its slot would be a hole, and a degraded run must stay
        restorable from its last *complete* checkpoint.  The driver blob is
        serialized *before* this checkpoint's own cost is recorded, so the
        metrics a resumed run restores do not include the checkpoint it
        restores from.
        """
        cluster, result = rs.cluster, rs.result
        if cluster.quarantined:
            return
        # The checkpoint, and a repair during its snapshot, are charged to
        # the timestep it closes.
        parts = rs.supervisor.round("snapshot", t, AT_EOT, None)
        if cluster.quarantined:
            return
        blob = {
            "next_t": t + 1,
            "temporal_frames": list(rs.temporal_frames),
            "input_msgs": rs.input_msgs,
            "outputs": list(result.outputs),
            "merge_outputs": list(result.merge_outputs),
            "timesteps_executed": result.timesteps_executed,
            "metrics": rs.recorder.metrics,
        }
        info = rs.manager.write(t + 1, blob, parts)
        rs.supervisor.checkpointed(info.path.name)
        cost = self.config.cost_model.checkpoint_cost(info.nbytes)
        rs.recorder.emit(CheckpointRecord(t, info.nbytes, info.seconds, cost, info.path.name))

    # -- one timestep ---------------------------------------------------------------------

    @staticmethod
    def _record(rs: _RunState, phase: str, t: int, s: int, results: list[HostStepResult]) -> None:
        """State one round's replies: a step record each (after a load record
        when its compute read a pack), then their telemetry."""
        for r in results:
            if r.load_s:
                rs.recorder.emit(LoadRecord(t, r.partition, r.load_s))
            rs.recorder.emit(StepRecord.of(phase, t, s, r))
        rs.recorder.absorb(results)

    def _run_timestep(self, rs: _RunState, t: int) -> bool:
        """Run one BSP timestep.  Returns True when the app halted early.

        On the wire a timestep is ``superstep* → eot``, and superstep 0
        opens it on every host (TI-BSP invokes every subgraph there): what a
        host loads ahead of the next one is its source's business.
        """
        rec, result, temporal_frames = rs.recorder, rs.result, rs.temporal_frames
        exchange = rs.supervisor.round
        gc = self.config.gc_model
        if gc.enabled:
            resident = exchange("resident", t, 0, None)
            for p, nbytes in enumerate(resident):
                pause = gc.pause_at(t - rs.start, nbytes)
                if pause and p not in rs.cluster.quarantined:
                    rec.emit(GcRecord(t, p, pause))

        # Superstep-0 deliveries per the pattern (Section II-D message rules).
        if rs.pattern is Pattern.SEQUENTIALLY_DEPENDENT and t > rs.start:
            # Last timestep's temporal frames, routed unopened like every
            # other round's (hosts deliver a partition's frames in order).
            per_part = route_frames(temporal_frames, self.pg.num_partitions)
            temporal_frames.clear()
        else:
            per_part = frames_from_deliveries(rs.input_msgs, self._sg_part, self.pg.num_partitions)
        halt_votes: set[int] = set()
        superstep = self._supersteps(rs, PHASE_COMPUTE, t, per_part, result.outputs, halt_votes)

        with rec.span("end_of_timestep", t=t):
            eot_results = exchange("eot", t, AT_EOT, None)
        self._record(rs, PHASE_COMPUTE, t, superstep, eot_results)
        pending_temporal = 0
        for r in eot_results:
            temporal_frames.extend(r.temporal_frames)
            result.outputs.extend(r.outputs)
            halt_votes |= r.halt_timestep_votes
            pending_temporal += r.pending_temporal

        # While-loop termination: all subgraphs voted AND no temporal messages
        # in flight — neither framed remote ones nor host-local ones.
        return halt_votes >= self._all_sgids and not temporal_frames and not pending_temporal

    # -- the BSP loop, for a timestep and for the Merge -----------------------------------

    def _supersteps(
        self,
        rs: _RunState,
        phase: str,
        t: int,
        per_part: list[list[MessageFrame]],
        outputs: list[tuple[int, int, Any]],
        halt_votes: set[int],
    ) -> int:
        """Run barriered supersteps from superstep 0 until quiescence.

        The one BSP loop, behind a timestep and behind the Merge: a Merge is
        the BSP at ``t = -1`` over the subgraph templates, which sends no
        temporal frames and casts no timestep votes (``halt_votes`` stays
        empty).  No checkpoint is written inside it.  ``outputs`` and
        ``halt_votes`` are extended in place; returns the number of
        supersteps run.
        """
        cfg, rec, k = self.config, rs.recorder, self.pg.num_partitions
        exchange = rs.supervisor.round
        if phase == PHASE_MERGE:
            op, span, where, name = "merge", "merge_superstep", {}, "merge phase"
        else:
            op, span, where, name = "superstep", "superstep", {"t": t}, f"timestep {t}"
        superstep = 0
        while True:
            if superstep >= cfg.max_supersteps:
                raise RuntimeError(
                    f"{name} exceeded max_supersteps={cfg.max_supersteps}; "
                    "is the computation failing to vote to halt?"
                )
            with rec.span(span, **where, s=superstep):
                barrier_start = time.perf_counter()
                step_results = exchange(op, t, superstep, per_part)
                rec.barrier(phase, t, superstep, barrier_start)
            self._record(rs, phase, t, superstep, step_results)

            frames: list[MessageFrame] = []
            for r in step_results:
                frames.extend(r.frames)
                rs.temporal_frames.extend(r.temporal_frames)
                outputs.extend(r.outputs)
                halt_votes |= r.halt_timestep_votes
            per_part = route_frames(frames, k)
            superstep += 1
            # Quiescence: nothing routed by the driver, every subgraph halted,
            # and no host still holds short-circuited local deliveries.
            if not frames and all(
                r.all_halted and not r.has_pending_local for r in step_results
            ):
                return superstep

    def _run_merge(self, rs: _RunState) -> None:
        """The Merge BSP; its outputs drop the timestep (there is none)."""
        outputs: list[tuple[int, int, Any]] = []
        try:
            self._supersteps(
                rs, PHASE_MERGE, -1, [[] for _ in range(self.pg.num_partitions)], outputs, set()
            )
        finally:
            # Also on a degraded exit: what the finished supersteps emitted.
            rs.result.merge_outputs.extend((sg, rec) for (_t, sg, rec) in outputs)


def run_application(
    computation: TimeSeriesComputation,
    pg: PartitionedGraph,
    collection: TimeSeriesGraphCollection,
    *,
    inputs: Iterable[tuple[int, Any]] | None = None,
    timestep_range: tuple[int, int] | None = None,
    config: EngineConfig | None = None,
    sources: Sequence[InstanceSource] | None = None,
    resume_from: str | bool | None = None,
) -> AppResult:
    """One-call convenience wrapper around :class:`TIBSPEngine`."""
    engine = TIBSPEngine(pg, collection, config=config, sources=sources)
    return engine.run(
        computation, inputs=inputs, timestep_range=timestep_range, resume_from=resume_from
    )
