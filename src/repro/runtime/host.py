"""Compute host: one partition's worth of subgraphs, state, and execution.

A host is the runtime stand-in for one VM of the paper's cluster: it owns
every subgraph of one partition, keeps their application state resident
across supersteps *and* timesteps, loads its graph instances (timed — the
Fig 6 load spikes), executes the user's ``compute``/``end_of_timestep``/
``merge`` on its subgraphs, and buffers outgoing messages.

The host also owns the sending side of the *message plane*:

* sends whose destination subgraph lives on this partition are delivered
  straight into the host's own next-superstep (or next-timestep) inbox —
  the GoFFish host-local short-circuit; the driver never routes them;
* sends crossing partitions are coalesced into one
  :class:`~repro.core.messages.MessageFrame` per destination partition,
  with payload bytes summed once at pack time;
* an application combiner (``computation.combine``, when defined) folds
  multiple same-destination messages into one before the barrier.

Hosts know nothing about global termination or routing — the engine drives
them through a narrow call protocol (``run_superstep``* → ``end_of_timestep``,
where superstep 0 opens the timestep's instance), stated once as the op
table :data:`HOST_OPS` behind :meth:`ComputeHost.handle`: what an in-driver
agent calls is exactly what a remote agent is sent over its socket, and
every host is built from one :class:`HostSpec`.  Because local deliveries
bypass the driver, each protocol reply reports ``has_pending_local`` so the engine's quiescence
rule can see messages still in flight inside hosts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext, MergeContext
from ..core.messages import Message, MessageFrame, MessageKind, SendBuffer
from ..core.patterns import Pattern
from ..graph.collection import TimeSeriesGraphCollection
from ..graph.instance import GraphInstance
from ..observability import NULL_SPAN, TracePacket, Tracer, partition_pid
from ..partition.base import Partition
from .cost import CostModel

__all__ = [
    "HOST_OPS",
    "ROUND_OPS",
    "InstanceSource",
    "CollectionInstanceSource",
    "HostStepResult",
    "ComputeHost",
    "HostSpec",
    "RunMeta",
    "host_op",
]


class InstanceSource(Protocol):
    """Per-host access to graph instances (in-memory, generated, or GoFS).

    Only ``instance`` and ``resident_bytes`` are required.  Sources may also
    implement optional hooks, discovered with ``getattr`` by the host:

    * ``attach_tracer(tracer)`` — narrate I/O on the host's trace track;
    * ``drain_load() -> float`` — load seconds since the last call: the
      reads its compute caused (``load_s``, out of ``compute_s``);
    * ``reload_instance(timestep)`` — an instance load for checkpoint
      replay that must not be recorded as fresh load evidence;
    * ``check_dataset(fingerprint)`` — called by the engine, not the host:
      raise ``ValueError`` unless the source was written for the run's
      :meth:`~repro.partition.base.PartitionedGraph.fingerprint`.
    """

    def instance(self, timestep: int) -> GraphInstance: ...

    def resident_bytes(self) -> int: ...


class CollectionInstanceSource:
    """Instance source backed by a (possibly lazy) collection."""

    def __init__(self, collection: TimeSeriesGraphCollection) -> None:
        self._collection = collection
        self._last: GraphInstance | None = None

    def instance(self, timestep: int) -> GraphInstance:
        self._last = self._collection.instance(timestep)
        return self._last

    def resident_bytes(self) -> int:
        if self._last is None:
            return 0
        v = self._last.vertex_values
        e = self._last.edge_values
        return v.approx_nbytes() + e.approx_nbytes()


@dataclass
class HostStepResult:
    """What one host reports back to the engine after one protocol call."""

    partition: int
    #: Remote superstep sends, coalesced per destination partition.
    frames: list[MessageFrame] = field(default_factory=list)
    #: Remote temporal sends (for the next timestep), likewise framed.
    temporal_frames: list[MessageFrame] = field(default_factory=list)
    outputs: list[tuple[int, int, Any]] = field(default_factory=list)  #: (timestep, sgid, record)
    halt_timestep_votes: set[int] = field(default_factory=set)
    all_halted: bool = True
    #: Messages waiting in this host's local next-superstep inbox — part of
    #: the engine's quiescence rule (local traffic is invisible otherwise).
    has_pending_local: bool = False
    #: Local temporal messages buffered for the next timestep.
    pending_temporal: int = 0
    subgraphs_computed: int = 0
    compute_s: float = 0.0
    send_s: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    local_messages: int = 0
    remote_messages: int = 0
    frames_sent: int = 0
    load_s: float = 0.0  # superstep 0's ``instance`` call, and reads compute caused
    #: Telemetry drained from this host's tracer during the call (None when
    #: tracing is off).  Picklable — process workers' spans/events/counters
    #: ride back to the driver inside the ordinary protocol reply.
    telemetry: TracePacket | None = None

    @classmethod
    def empty(cls, partition: int) -> "HostStepResult":
        """A synthesized no-op round result for a quarantined partition.

        Halted, no sends, no pending messages — the quiescence rule treats
        the degraded partition as permanently done.
        """
        return cls(partition)


@dataclass(frozen=True)
class RunMeta:
    """Immutable run-wide parameters shared by engine and hosts."""

    pattern: Pattern
    num_timesteps: int
    delta: float
    t0: float


class ComputeHost:
    """Executes a computation over one partition's subgraphs.

    Parameters
    ----------
    partition:
        The partition (subgraphs) this host owns.
    computation:
        The user's :class:`TimeSeriesComputation`.
    meta:
        Run-wide parameters.
    source:
        Where this host gets its graph instances.
    subgraph_partition:
        Global array mapping subgraph id → owning partition.  Routing: local
        sends short-circuit into this host's own inbox; the rest are framed
        per destination partition.
    cost_model:
        Communication cost model.
    tracer:
        Optional :class:`~repro.observability.Tracer` for this host's
        track.  ``None`` (the default) keeps every instrumented path to a
        single identity check — no allocation, no span objects.
    """

    #: Class-level default so partially constructed hosts (tests build them
    #: via ``__new__``) still read as untraced.
    tracer: Tracer | None = None

    def __init__(
        self,
        partition: Partition,
        computation: TimeSeriesComputation,
        meta: RunMeta,
        source: InstanceSource,
        subgraph_partition: np.ndarray,
        cost_model: CostModel | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.partition = partition
        self.computation = computation
        self.meta = meta
        self.source = source
        self.subgraph_partition = np.asarray(subgraph_partition, dtype=np.int64)
        self.cost_model = cost_model or CostModel()
        self.tracer = tracer
        if tracer is not None:
            # Sources that can narrate their own I/O (GoFS pack loads — the
            # Fig 6 spike) record onto this host's track.
            attach = getattr(source, "attach_tracer", None)
            if callable(attach):
                attach(tracer)
        combine = getattr(computation, "combine", None)
        self._combine = combine if callable(combine) else None
        #: Per-subgraph application state, resident for the whole run.
        self.states: dict[int, dict] = {sg.subgraph_id: {} for sg in partition.subgraphs}
        #: State shared by every subgraph of this partition (ctx.partition_state).
        self.partition_state: dict = {}
        self._halted: dict[int, bool] = {}
        self._merge_inbox: dict[int, list[Message]] = {
            sg.subgraph_id: [] for sg in partition.subgraphs
        }
        #: Host-local deliveries for the *next* superstep (short-circuit path).
        self._local_inbox: dict[int, list[Message]] = {}
        #: Host-local temporal deliveries for the *next* timestep.
        self._temporal_inbox: dict[int, list[Message]] = {}
        self._instance: GraphInstance | None = None

    # -- message plane -----------------------------------------------------------------

    def _open_inbox(self, deliveries: Iterable[MessageFrame]) -> dict[int, list[Message]]:
        """This superstep's inbox: pending local deliveries + driver frames.

        Per-subgraph order is host-local messages first, then remote frames
        in driver routing order (source partitions ascending) — identical
        for every executor backend, which keeps runs bit-reproducible.
        """
        inbox = self._local_inbox
        self._local_inbox = {}
        for frame in deliveries:
            frame.deliver_into(inbox)
        return inbox

    def _combined(self, sends: list[tuple[int, Message]]) -> list[tuple[int, Message]]:
        """Apply the application combiner per destination subgraph.

        Messages are grouped by ``(destination, kind, timestep)`` so a mix of
        kinds or timesteps to one destination is never folded across the
        boundary — each group keeps its own envelope tags.
        """
        if self._combine is None or len(sends) < 2:
            return sends
        grouped: dict[tuple[int, MessageKind, int], list[Message]] = {}
        order: list[tuple[int, MessageKind, int]] = []
        for dst, msg in sends:
            key = (dst, msg.kind, msg.timestep)
            if key not in grouped:
                order.append(key)
            grouped.setdefault(key, []).append(msg)
        if len(grouped) == len(sends):  # no (destination, kind, timestep) repeated
            return sends
        out: list[tuple[int, Message]] = []
        for key in order:
            dst, kind, timestep = key
            msgs = grouped[key]
            if len(msgs) == 1:
                out.append((dst, msgs[0]))
            else:
                payload = self._combine(dst, [m.payload for m in msgs])
                out.append((dst, Message(payload, None, timestep, kind)))
        if self.tracer is not None:
            self.tracer.event(
                "combine",
                partition=self.partition.partition_id,
                folded_from=len(sends),
                folded_to=len(out),
            )
            self.tracer.count("combiner.folded_messages", len(sends) - len(out))
        return out

    def _flush_sends(
        self,
        result: HostStepResult,
        superstep_sends: list[tuple[int, Message]],
        temporal_sends: list[tuple[int, Message]],
        timestep: int,
        superstep: int,
    ) -> None:
        """Route one protocol call's sends: combine, short-circuit, frame, cost.

        ``approx_size`` is evaluated exactly once per message here; remote
        byte totals ride in the frames' ``nbytes``.
        """
        tr = self.tracer
        own = self.partition.partition_id
        sg_part = self.subgraph_partition
        local_n = local_b = remote_n = remote_b = 0

        with tr.span("send_flush", t=timestep, s=superstep) if tr is not None else NULL_SPAN:
            # Superstep sends (combined) land in the next superstep's inbox or
            # a frame; temporal sends in the next timestep's, never combined.
            for sends, local_inbox, frames_out, is_temporal in (
                (self._combined(superstep_sends), self._local_inbox, result.frames, False),
                (temporal_sends, self._temporal_inbox, result.temporal_frames, True),
            ):
                remote: dict[int, list[tuple[int, Message]]] = {}
                for dst, msg in sends:
                    if sg_part[dst] == own:
                        local_inbox.setdefault(dst, []).append(msg)
                        local_n += 1
                        local_b += msg.approx_size()
                    else:
                        remote.setdefault(int(sg_part[dst]), []).append((dst, msg))
                for dst_part, batch in remote.items():
                    frame = MessageFrame.pack(own, dst_part, batch)
                    remote_n += len(frame)
                    remote_b += frame.nbytes
                    frames_out.append(frame)
                    if tr is not None:
                        tr.event(
                            "frame_ship",
                            timestep=timestep,
                            superstep=superstep,
                            src_partition=own,
                            dst_partition=dst_part,
                            messages=len(frame),
                            nbytes=frame.nbytes,
                            temporal=is_temporal,
                        )

        result.local_messages += local_n
        result.remote_messages += remote_n
        result.messages_sent += local_n + remote_n
        result.bytes_sent += remote_b
        result.frames_sent += len(result.frames) + len(result.temporal_frames)
        result.send_s += self.cost_model.local_send_cost(local_n, local_b)
        result.send_s += self.cost_model.remote_send_cost(remote_n, remote_b)

    # -- protocol ----------------------------------------------------------------------

    def handle(self, op: str, timestep: int, superstep: int, payload, *, replay: bool = False):
        """Execute one protocol op — what every executor calls (see :data:`HOST_OPS`)."""
        return host_op(op)(self, timestep, superstep, payload, replay)

    def resident_bytes(self) -> int:
        """Bytes of instance data resident on this host (GC model input)."""
        return self.source.resident_bytes()

    def _drain_load(self) -> float:
        """The source's load seconds since the last drain."""
        drain = getattr(self.source, "drain_load", None)
        return drain() if callable(drain) else 0.0

    def _open_timestep(self, timestep: int, replay: bool) -> float:
        """Superstep 0's opening: load ``timestep``'s instance, reset the halt
        flags and seed the inbox with the temporal messages short-circuited
        during the previous timestep.  Returns the load seconds.

        ``replay`` marks a journal replay on a surgically recovered host:
        the instance load goes through ``reload_instance`` (no fresh load
        evidence — the original round already recorded it) and is not timed.
        """
        if replay:
            reload = getattr(self.source, "reload_instance", None)
            self._instance = (
                reload(timestep) if callable(reload) else self.source.instance(timestep)
            )
            load_s = 0.0
        else:
            tr = self.tracer
            with tr.span("load", t=timestep) if tr is not None else NULL_SPAN:
                start = time.perf_counter()
                self._instance = self.source.instance(timestep)
                load_s = time.perf_counter() - start + self._drain_load()
        self._halted = {sg.subgraph_id: False for sg in self.partition.subgraphs}
        self._local_inbox = self._temporal_inbox
        self._temporal_inbox = {}
        return load_s

    def _run_subgraphs(
        self,
        user: Callable[[Any], None],
        ctx_cls: type,
        span: str,
        timestep: int,
        superstep: int,
        inbox: dict[int, list[Message]] | None,
    ) -> HostStepResult:
        """One pass of user code over this partition's subgraphs.

        A subgraph runs at superstep 0 (every BSP starts by invoking all
        subgraphs, Section II-D), when it has incoming messages
        (reactivation), or when it has not voted to halt.  ``inbox=None``
        is end of timestep: every subgraph, no messages, halt flags
        untouched.  ``timestep`` / ``superstep`` are -1 where the call has
        none (the Merge / end of timestep).
        """
        tr = self.tracer
        bsp = inbox is not None
        result = HostStepResult(self.partition.partition_id)
        sends: list[tuple[int, Message]] = []
        temporal: list[tuple[int, Message]] = []
        # A coordinate the call does not have (-1) is not a span arg.
        coords = (("t", timestep), ("s", superstep))
        with tr.span(span, **{k: v for k, v in coords if v >= 0}) if tr is not None else NULL_SPAN:
            for sg in self.partition.subgraphs:
                sgid = sg.subgraph_id
                msgs = inbox.get(sgid, ()) if bsp else ()
                if superstep > 0 and self._halted[sgid] and not msgs:
                    continue
                buffer = SendBuffer()
                ctx = ctx_cls(
                    sg, self._instance, timestep, superstep, msgs,
                    self.states[sgid], self.meta, buffer, self.partition_state,
                )
                start = time.perf_counter()
                user(ctx)
                result.compute_s += time.perf_counter() - start
                sends.extend(buffer.superstep_sends)
                temporal.extend(buffer.temporal_sends)
                self._merge_inbox[sgid].extend(buffer.merge_sends)
                result.outputs.extend((timestep, sgid, rec) for rec in buffer.outputs)
                if buffer.voted_halt_timestep:
                    result.halt_timestep_votes.add(sgid)
                if bsp:
                    self._halted[sgid] = buffer.voted_halt
                    result.subgraphs_computed += 1
        loaded = self._drain_load()  # a pack read is load, not compute
        result.load_s += loaded
        result.compute_s -= loaded
        self._flush_sends(result, sends, temporal, timestep, superstep)
        result.has_pending_local = bool(self._local_inbox)
        result.pending_temporal = sum(len(v) for v in self._temporal_inbox.values())
        if tr is not None:
            result.telemetry = tr.drain()
        result.all_halted = all(self._halted.values()) if bsp else True
        return result

    def run_superstep(
        self,
        timestep: int,
        superstep: int,
        deliveries: Iterable[MessageFrame],
        *,
        replay: bool = False,
    ) -> HostStepResult:
        """Run ``compute`` on this host's active subgraphs for one superstep.

        Superstep 0 opens the timestep first (:meth:`_open_timestep`), so
        the temporal inbox goes ahead of the routed ``deliveries``.
        """
        load_s = self._open_timestep(timestep, replay) if superstep == 0 else 0.0
        assert self._instance is not None, "a timestep opens at superstep 0"
        result = self._run_subgraphs(
            self.computation.compute, ComputeContext, "compute",
            timestep, superstep, self._open_inbox(deliveries),
        )
        result.load_s += load_s
        return result

    def end_of_timestep(self, timestep: int) -> HostStepResult:
        """Invoke ``end_of_timestep`` on every subgraph of this partition."""
        assert self._instance is not None
        return self._run_subgraphs(
            self.computation.end_of_timestep, EndOfTimestepContext, "end_of_timestep",
            timestep, -1, None,
        )

    def run_merge_superstep(
        self, superstep: int, deliveries: Iterable[MessageFrame]
    ) -> HostStepResult:
        """Run one superstep of the Merge BSP (eventually dependent pattern).

        At superstep 0 every subgraph receives the messages it sent to merge
        across all timesteps (in timestep order); afterwards, messages from
        other subgraphs' merge supersteps (local short-circuits + frames).
        """
        inbox = self._open_inbox(deliveries)
        if superstep == 0:
            if inbox:
                # The engine's quiescence rule guarantees no frames or
                # leftover local deliveries exist here.  Reject protocol
                # misuse loudly rather than silently dropping the messages.
                raise RuntimeError(
                    "merge superstep 0 expects no deliveries (messages come from "
                    f"the merge inbox), got messages for subgraphs {sorted(inbox)}"
                )
            # The Merge runs over the subgraph templates: no instance.
            self._instance = None
            self._halted = {sg.subgraph_id: False for sg in self.partition.subgraphs}
            inbox = {
                sgid: sorted(msgs, key=lambda m: m.timestep)
                for sgid, msgs in self._merge_inbox.items()
            }
        return self._run_subgraphs(
            self.computation.merge, MergeContext, "merge", -1, superstep, inbox
        )

    def final_states(self) -> dict[int, dict]:
        """Per-subgraph application state at the end of the run."""
        return self.states

    # -- checkpoint / restore -----------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Everything resident on this host that a checkpoint must capture.

        Taken at the end of a timestep: per-subgraph application state, the
        shared partition state, and the merge and temporal inboxes.  Halt
        flags and the local superstep inbox are not carried: the BSP that
        set them has quiesced, and the next superstep 0 (of a timestep or of
        the Merge) resets them.  The returned dict aliases live state —
        callers serialize it immediately (socket or pickle-to-disk), which is
        what produces the copy.
        """
        return {
            "partition": self.partition.partition_id,
            "subgraphs": sorted(sg.subgraph_id for sg in self.partition.subgraphs),
            "states": self.states,
            "partition_state": self.partition_state,
            "merge_inbox": self._merge_inbox,
            "temporal_inbox": self._temporal_inbox,
        }

    def restore_state(self, snapshot: dict) -> None:
        """Install a :meth:`snapshot_state` blob (host repair or resume).

        The instance is left unloaded: the next superstep 0 — live, or
        replayed from the journal — loads it as usual.

        The run itself never rewinds: a repaired host replays forward to
        the current round, so the source's committed load evidence stays
        valid.
        """
        own = sorted(sg.subgraph_id for sg in self.partition.subgraphs)
        if snapshot.get("subgraphs") != own:
            raise ValueError(
                f"checkpoint snapshot for subgraphs {snapshot.get('subgraphs')} does not "
                f"match partition {self.partition.partition_id}'s subgraphs {own}"
            )
        self.states = snapshot["states"]
        self.partition_state = snapshot["partition_state"]
        self._halted = {}
        self._merge_inbox = {sgid: list(msgs) for sgid, msgs in snapshot["merge_inbox"].items()}
        self._temporal_inbox = {
            sgid: list(msgs) for sgid, msgs in snapshot["temporal_inbox"].items()
        }
        self._local_inbox = {}
        self._instance = None


# -- the protocol, stated once -------------------------------------------------------

#: The protocol ops that advance host state.  The supervisor journals them
#: and scripted faults address them, at the ``(timestep, superstep)`` the
#: driver issued; every other op is a read-only query or ``restore``.
ROUND_OPS = ("superstep", "eot", "merge")

#: The one op table: protocol op → the host call behind it, as
#: ``fn(host, timestep, superstep, payload, replay)``.  The in-process
#: cluster and every worker agent dispatch through
#: :meth:`ComputeHost.handle`; no other module maps an op to a method.
HOST_OPS: dict[str, Callable[[ComputeHost, Any, int, Any, bool], Any]] = {
    "superstep": lambda h, t, s, payload, replay: h.run_superstep(t, s, payload, replay=replay),
    "eot": lambda h, t, s, payload, replay: h.end_of_timestep(t),
    "merge": lambda h, t, s, payload, replay: h.run_merge_superstep(s, payload),
    "resident": lambda h, t, s, payload, replay: h.resident_bytes(),
    "states": lambda h, t, s, payload, replay: h.final_states(),
    "snapshot": lambda h, t, s, payload, replay: h.snapshot_state(),
    "restore": lambda h, t, s, payload, replay: h.restore_state(payload),
}


def host_op(op: str) -> Callable[[ComputeHost, Any, int, Any, bool], Any]:
    """:data:`HOST_OPS`' entry for ``op``; an unknown op is a ``ValueError``.

    Drivers of remote hosts call this before sending, so a misspelt op
    fails in the caller instead of inside a worker.
    """
    try:
        return HOST_OPS[op]
    except KeyError:
        raise ValueError(f"unknown protocol op {op!r}") from None


@dataclass(frozen=True)
class HostSpec:
    """What every host of one run is built from.

    Picklable, and the same object on every executor: the in-process
    cluster builds its hosts from it, a forked agent inherits it and a
    ``hosts`` agent receives it in its ``init`` handshake, each alongside
    the per-partition ``(partition, source, sg_part)``.
    """

    computation: TimeSeriesComputation
    meta: RunMeta
    cost_model: CostModel = field(default_factory=CostModel)
    #: Give the host its own tracer (one trace track per partition); its
    #: telemetry rides back inside ordinary protocol replies.
    tracing: bool = False

    def build(
        self, partition: Partition, source: InstanceSource, sg_part: np.ndarray
    ) -> ComputeHost:
        """Construct ``partition``'s host over ``source``, routing by ``sg_part``."""
        pid = partition.partition_id
        return ComputeHost(
            partition,
            self.computation,
            self.meta,
            source,
            sg_part,
            self.cost_model,
            tracer=Tracer(partition_pid(pid), f"partition {pid}") if self.tracing else None,
        )
