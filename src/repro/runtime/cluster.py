"""The cluster: one channel per partition, driven through one protocol.

Every partition is the same two protocol objects
(:mod:`repro.runtime.protocol`) around a channel: an
:class:`~repro.runtime.protocol.Agent` executes commands on the
partition's host, and the driver waits for each reply with a
:class:`~repro.runtime.protocol.Gather`.  :class:`Cluster` holds the one
scatter/gather loop, and each partition holds exactly one channel object:
``post(command)`` (``WorkerLost`` if it cannot), ``receive(deadline)``
(``GatherTimeout`` past the ``time.monotonic`` deadline, ``EOFError`` /
``OSError`` once the session ended, ``WorkerError`` for a corrupt frame)
and ``close()``.  Where the agent runs is decided in one place,
:meth:`Cluster._open`:

* with ``hosts``, every partition connects to an agent somebody started;
* otherwise, when agents leave the driver (``remote=True``, the process
  and socket executors), partition 0 stays in the driver and partitions
  1..k−1 are forked;
* otherwise (serial), every partition stays in the driver.

An in-driver partition is an :class:`InProcessChannel`, run in partition
order — deterministic scheduling and exact per-partition timing, and the
*simulated* wall-clock (max-over-hosts per superstep, see
:mod:`repro.runtime.metrics`) is what reproduces the paper's distributed
timing figures.  A remote one is an
:class:`~repro.runtime.process_cluster.AgentChannel`; its transport is
imported only when such a channel opens, so a serial run imports no
``socket`` or ``multiprocessing``.

The cluster speaks the same *resilience protocol* on top of the step
protocol: a ``snapshot`` round collects per-partition state blobs for a
checkpoint, a ``restore`` round installs them, and ``respawn_worker()``
replaces one agent with a fresh incarnation (used by recovery after a
failure, and honored by the fault plan's incarnation guard).  The driver
issues every exchange through
:class:`~repro.resilience.supervisor.HostSupervisor`, which repairs what
:meth:`Cluster.run_round` captured.  A scripted fault means the
same on every executor, because one :class:`Agent` fires it and one
:class:`Gather` repairs what it did to the reply.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Sequence

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..observability import NULL_SPAN, Tracer
from ..partition.base import PartitionedGraph
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RecoverableError, RecoveryPolicy
from .cost import CostModel
from .host import (
    ROUND_OPS,
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
    answer,
)

__all__ = [
    "ROUND_OPS",
    "Cluster",
    "InProcessChannel",
    "quarantine_fill",
]

#: What a quarantined partition answers to each op that is not a round.
_QUERY_FILL = {"resident": 0, "states": {}, "snapshot": None, "restore": None}


def quarantine_fill(op: str, partition: int):
    """A quarantined partition's synthesized outcome for one ``op``."""
    return HostStepResult.empty(partition) if op in ROUND_OPS else _QUERY_FILL.get(op)


class Cluster:
    """One channel per partition, and the driver's half of the protocol over them.

    ``computation``, ``meta``, ``cost_model`` and ``tracing`` are what
    :class:`~repro.runtime.host.HostSpec` builds each partition's host
    from; ``sources`` holds one instance source per
    partition (a remote agent produces its instances in its own address
    space).  ``remote`` says whether agents leave the driver (every executor
    but serial); ``hosts`` (``"host:port,..."`` or a sequence) names one
    started agent per partition.  ``gather_timeout_s`` bounds a partition's
    reply wait in every round (``None`` waits for ever); ``fault_plan`` is
    what each partition's :class:`~repro.runtime.protocol.Agent` fires.
    ``retry_policy`` (a :class:`~repro.resilience.recovery.RecoveryPolicy`)
    arms the protocol retry: a timeout or a corrupt reply is cured by
    resending the same sequence-numbered command — the agent answers from
    its reply cache — up to ``max_retries`` times with the policy's backoff,
    before the failure surfaces (by default at once: no resends).

    Use as a context manager to reap the agents even when the driver raises.
    """

    num_partitions: int
    #: Driver-side tracer for the ship / barrier spans of a round.  The
    #: engine sets this after construction when the run is traced.
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
        computation: TimeSeriesComputation,
        meta: RunMeta,
        sources: Sequence[InstanceSource],
        *,
        remote: bool = False,
        hosts: str | Sequence[str] | None = None,
        cost_model: CostModel | None = None,
        tracing: bool = False,
        gather_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RecoveryPolicy = RecoveryPolicy(max_retries=0),
    ) -> None:
        if len(sources) != pg.num_partitions:
            raise ValueError("need exactly one instance source per partition")
        if gather_timeout_s is not None and gather_timeout_s <= 0:
            raise ValueError("gather_timeout_s must be positive (or None to disable)")
        if hosts is not None:
            from .process_cluster import parse_hosts

            hosts = parse_hosts(hosts)
            if len(hosts) != pg.num_partitions:
                raise ValueError(
                    f"need exactly one worker address per partition "
                    f"({len(hosts)} given, {pg.num_partitions} partitions)"
                )
        self._hosts = hosts
        self._remote = remote or hosts is not None
        self._spec = HostSpec(computation, meta, cost_model or CostModel(), tracing)
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
        self._channels: list = [None] * pg.num_partitions
        # If any start fails (fork, connect, handshake), tear down the agents
        # already started instead of leaking processes that outlive the
        # failed constructor.
        try:
            for p in range(pg.num_partitions):
                self._open(p)
        except BaseException:
            self.shutdown(force=True)
            raise
        #: Whether rounds cross a wire: only then do ship / barrier spans show
        #: anything (in the driver, the hosts' own spans partition a round).
        self._wire = any(type(c) is not InProcessChannel for c in self._channels)

    def _open(self, p: int) -> None:
        """Start partition ``p``'s agent session at its current incarnation,
        where it runs: on its ``hosts`` agent, in the driver (partition 0,
        or every partition of a serial run), or in a forked agent."""
        if self._hosts is None and (p == 0 or not self._remote):
            host = self._spec.build(self._pg.partitions[p], self._sources[p], self._sg_part)
            # Beside remote agents an application error is an error reply,
            # as theirs is; a serial run raises the application's own.
            run = answer if self._remote else Agent.on_command
            self._channels[p] = InProcessChannel(
                Agent(host, self.fault_plan, self.incarnations[p]), p, run
            )
            return
        from . import process_cluster  # only a remote channel needs the transport

        init = (self._spec, self._pg.partitions[p], self._sources[p], self._sg_part,
                self.fault_plan, self.incarnations[p])
        self._channels[p] = (
            process_cluster.fork(p, init) if self._hosts is None
            else process_cluster.connect(self._hosts[p], p, init)
        )

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
        self._channels[p].post(command)

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
                    envelope = self._channels[p].receive(deadline)
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
                self._channels[p].post(self._inflight[p])
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
        else, or a ``payloads`` list of another length than the partition
        count, is a ``ValueError`` before any host sees it): one of
        :data:`ROUND_OPS` — ``superstep`` / ``merge`` (payloads =
        per-partition deliveries: coalesced ``MessageFrame`` lists, or a
        plain subgraph-id → messages map for direct protocol use; superstep
        0 opens the timestep; merge rounds pass ``timestep=-1``), ``eot``
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
        if payloads is not None and len(payloads) != self.num_partitions:
            raise ValueError(
                f"need exactly one payload per partition "
                f"({len(payloads)} given, {self.num_partitions} partitions)"
            )
        tr = self.driver_tracer if self._wire else None
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
        self._channels[partition].close()
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
        self._channels[partition].close()

    def drain_protocol_incidents(self) -> list[tuple[str, int, float]]:
        """Exchanges a protocol resend cured since the last drain, as
        ``(kind, partition, seconds)``."""
        incidents, self._incidents = self._incidents, []
        return incidents

    def protocol_stats(self) -> dict:
        """Driver↔agent protocol counters (commands, resends, dedup drops, ...)."""
        return dict(self._stats)

    def shutdown(self, *, force: bool = False) -> None:
        """Release resources, idempotently: reap the remote agents (see
        :func:`~repro.runtime.process_cluster.stop`; ``force`` skips the
        polite stop)."""
        channels, self._channels = self._channels, []
        remote = [c for c in channels if c is not None and type(c) is not InProcessChannel]
        if remote:
            from .process_cluster import stop

            stop(remote, force=force, tracer=self.driver_tracer)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class InProcessChannel:
    """One partition's :class:`Agent` in the driver process, as a channel.

    Objects pass by reference, never pickled.  A posted command runs only
    when its reply is gathered: :meth:`Cluster.run_round` posts to every
    partition first, so agents in other processes compute while the driver
    runs this one.  The agent's wire actions queue on a deque: a reply it
    did not send is an immediate gather timeout, a ``delay`` is slept
    against the gather window, and a closed session reads as EOF — each
    fault is repaired as on a socket.  ``run`` executes a command:
    :meth:`Agent.on_command`, or :func:`~repro.runtime.protocol.answer` to
    turn an application error into an error reply.
    """

    __slots__ = ("agent", "partition", "_run", "_posted", "_wire")

    def __init__(self, agent: Agent, partition: int, run=Agent.on_command) -> None:
        self.agent, self.partition, self._run = agent, partition, run
        self._posted, self._wire = deque(), deque()

    def post(self, command: tuple) -> None:
        if self.agent.closed:
            raise WorkerLost(f"partition {self.partition} agent closed its session",
                             partition=self.partition)
        self._posted.append(command)

    def receive(self, deadline: float | None):
        wire, posted = self._wire, self._posted
        while posted:
            wire.extend(self._run(self.agent, posted.popleft()))
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
                    raise GatherTimeout(f"partition {self.partition} reply is late")
                time.sleep(value)
                continue
            if verb is CLOSE:
                break
            raise WorkerError(f"partition {self.partition} sent a corrupt reply frame")
        if self.agent.closed:
            raise EOFError(f"partition {self.partition} agent closed its session")
        raise GatherTimeout(f"partition {self.partition} reply was never sent")

    def close(self) -> None:
        """Discard what is posted and queued (respawn or quarantine)."""
        self._posted.clear()
        self._wire.clear()
