"""Live telemetry plane: streaming metrics, heartbeats, straggler detection.

Post-hoc tracing (PR 2) answers *what happened*; this module answers *what
is happening*.  A :class:`LiveMetrics` registry holds the run's own
:class:`~repro.runtime.metrics.MetricsCollector` — there is no second copy —
so its cumulative totals *are* the run's totals at every instant.  The
driver thread is the collector's only writer and folds each record in
through :meth:`LiveMetrics.fold`, under the lock every reader
(:meth:`~LiveMetrics.snapshot`, :meth:`~LiveMetrics.summary`, exporters)
takes; the watchdog thread never touches the collector.

Three concerns live here:

* **streaming aggregation** — host-published source stats (cache and
  prefetch counters riding protocol replies) and a ring buffer of periodic
  :meth:`LiveMetrics.snapshot` dicts that exporters and the ``tibsp top``
  dashboard consume.  A snapshot's per-partition busy/compute/send/message
  series are folded from the collector's step records when it is taken,
  like its totals: the registry accumulates nothing of its own;
* **heartbeat / straggler detection** — per-partition last-seen liveness,
  a per-round stall watchdog (:class:`HeartbeatMonitor`, a daemon thread
  that keeps watching while the driver blocks in a gather), and
  median-based straggler attribution at snapshot ticks.  A
  :class:`HealthEvent` is a finding this plane *makes* — ``straggler`` or
  ``stalled`` — shown in snapshots and emitted into the event log via the
  registry's own tracer track (drained by the engine at the end of the
  run; never the driver's tracer, so no cross-thread races).  A repair is
  the supervisor's record and reaches snapshots as the collector's
  ``retries`` / ``recovery_s`` totals;
* **resume integration** — :meth:`LiveMetrics.resync` continues on the
  collector a ``resume_from`` run restored.

Like the rest of this package the module is repro-agnostic: the collector
is dependency-injected by the engine (duck-typed ``fold`` / ``summary`` /
``step_records`` surface), so no import cycle forms.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .tracer import DRIVER_PID, Tracer

__all__ = [
    "LIVE_SCHEMA_VERSION",
    "HealthEvent",
    "HeartbeatMonitor",
    "LiveConfig",
    "LiveMetrics",
]

#: Version of the live snapshot record envelope (``live.jsonl`` lines).
LIVE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LiveConfig:
    """Live-telemetry knobs for ``EngineConfig.live``.

    Attributes
    ----------
    interval_s:
        Minimum seconds between periodic snapshots.  ``0`` snapshots at
        every observation (tests; short runs).
    ring:
        Snapshot ring-buffer capacity (older snapshots fall off; exporters
        already received them).
    export_dir:
        When set, the engine attaches the Prometheus-textfile and JSONL
        snapshot exporters writing ``live.prom`` / ``live.jsonl`` here.
    heartbeat_s:
        Cadence of the stall watchdog thread.  ``None`` disables the
        thread; stall checks then only happen at snapshot ticks (i.e. not
        while the driver is blocked in a gather).
    stall_after_s:
        A protocol round older than this is flagged ``stalled``.
    straggler_factor / straggler_min_s:
        A partition whose busy-time delta since the last snapshot exceeds
        ``straggler_factor`` × the median delta *and* exceeds the median by
        at least ``straggler_min_s`` seconds is flagged ``straggler``.
    """

    interval_s: float = 0.5
    ring: int = 256
    export_dir: str | None = None
    heartbeat_s: float | None = 0.5
    stall_after_s: float = 5.0
    straggler_factor: float = 2.0
    straggler_min_s: float = 0.05


@dataclass(frozen=True)
class HealthEvent:
    """One liveness finding (also emitted into the structured event log)."""

    kind: str  #: straggler | stalled
    partition: int | None
    timestep: int
    superstep: int
    wall_s: float  #: seconds since the run started when detected
    seconds: float  #: magnitude (busy delta, round age, ...) behind the finding
    detail: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "partition": self.partition,
            "timestep": self.timestep,
            "superstep": self.superstep,
            "wall_s": round(self.wall_s, 6),
            "seconds": round(self.seconds, 6),
            "detail": self.detail,
        }


class LiveMetrics:
    """Thread-safe driver-side registry of one run's streaming telemetry.

    Parameters
    ----------
    num_partitions:
        Cluster width.
    metrics:
        The run's :class:`~repro.runtime.metrics.MetricsCollector` (duck-
        typed), written only through :meth:`fold` and read under the same
        lock, so :meth:`summary` is the run summary.
    num_timesteps:
        Planned timesteps (progress denominator).
    config:
        :class:`LiveConfig`; defaults apply when ``None``.
    clock:
        Monotonic clock (injectable for tests).
    """

    def __init__(
        self,
        num_partitions: int,
        *,
        metrics: Any,
        num_timesteps: int = 0,
        config: LiveConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.num_partitions = int(num_partitions)
        self.num_timesteps = int(num_timesteps)
        self.config = config or LiveConfig()
        self._clock = clock
        self._lock = threading.RLock()
        self.metrics = metrics
        self._started = clock()
        n = self.num_partitions
        self.heartbeats = [0] * n
        #: Per-partition last-observation instants (monotonic; None = never).
        self.last_seen: list[float | None] = [None] * n
        #: Host-published source stats (cache/prefetch counters), by partition.
        self.source_stats: dict[int, dict[str, Any]] = {}
        #: Quarantined partitions: what answers for them is synthesized.
        self._retired: set[int] = set()
        self.snapshots: deque[dict[str, Any]] = deque(maxlen=max(1, self.config.ring))
        self._seq = 0
        self._last_snap: float | None = None
        self._busy_at_snap = [0.0] * n
        self._flagged_stragglers: set[int] = set()
        self._health: list[HealthEvent] = []
        self._recent = deque(maxlen=32)
        #: In-flight protocol round: ``(phase, timestep, superstep, started)``.
        self._round: tuple[str, int, int, float] | None = None
        self._stall_flagged = False
        self._current = ("idle", -1, -1)
        self._exporters: list[Any] = []
        #: Dedicated tracer track for health events.  Shares the driver's
        #: logical pid but never its Tracer object: health events may be
        #: recorded from the watchdog thread, and this tracer is only
        #: touched under ``self._lock``.
        self._tracer = Tracer(DRIVER_PID, "driver")
        self._monitor: HeartbeatMonitor | None = None
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------------

    def add_exporter(self, exporter: Any) -> None:
        """Attach an exporter (``export(snapshot)`` + ``close()`` duck type)."""
        with self._lock:
            self._exporters.append(exporter)

    def start(self) -> None:
        """Start the stall watchdog when the config asks for one."""
        if self.config.heartbeat_s is not None and self._monitor is None:
            self._monitor = HeartbeatMonitor(self, self.config.heartbeat_s)
            self._monitor.start()

    def finalize(self) -> dict[str, Any] | None:
        """Stop the watchdog, take the final snapshot, close exporters.

        Idempotent; returns the final snapshot.  Called from the engine's
        ``finally`` so a crashed run still flushes its exporters.
        """
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None
        with self._lock:
            if self._finalized:
                return self.snapshots[-1] if self.snapshots else None
            snap = self.snapshot(force=True)
            for exporter in self._exporters:
                close = getattr(exporter, "close", None)
                if callable(close):
                    close()
            self._finalized = True
            return snap

    def last_snapshot(self) -> dict[str, Any] | None:
        """The most recent snapshot record, or None before the first tick."""
        with self._lock:
            return self.snapshots[-1] if self.snapshots else None

    def drain_telemetry(self):
        """Drain health events as a TracePacket for the run's event log."""
        with self._lock:
            return self._tracer.drain()

    # -- observation (engine feed points) -----------------------------------------------

    def round_begin(self, phase: str, timestep: int, superstep: int) -> None:
        """A scatter/gather round is about to block; arm the stall watchdog."""
        with self._lock:
            self._round = (phase, int(timestep), int(superstep), self._clock())
            self._stall_flagged = False
            self._current = (phase, int(timestep), int(superstep))

    def fold(self, record: Any) -> None:
        """Fold one run record into the collector, under the readers' lock."""
        with self._lock:
            self.metrics.fold(record)

    def retire(self, partition: int) -> None:
        """``partition`` was quarantined: no host answers for it any more."""
        with self._lock:
            self._retired.add(partition)

    def round_end(self, replies: Iterable[Any]) -> None:
        """A round's replies are in: heartbeats, host-published stats, snapshot tick.

        Only a host's own reply is a heartbeat; a quarantined partition's
        synthesized one is skipped, so its ``last_seen`` age keeps growing.
        """
        now = self._clock()
        with self._lock:
            for r in replies:
                if r.partition in self._retired:
                    continue
                stats = getattr(r, "stats", None)
                if stats:
                    self.source_stats[r.partition] = dict(stats)
                self.last_seen[r.partition] = now
                self.heartbeats[r.partition] += 1
            self._round = None
            self._stall_flagged = False  # the round completed after all
            self.snapshot()

    def resync(self, metrics: Any) -> None:
        """Continue on the collector a ``resume_from`` checkpoint carried.

        Streaming totals start exactly where the run's metrics do, and the
        straggler window opens at the restored records' busy totals.
        """
        with self._lock:
            self.metrics = metrics
            self._busy_at_snap = self._partition_series()[0]
            self._flagged_stragglers = set()
            self._round = None
            self.snapshot(force=True)

    # -- health ------------------------------------------------------------------------

    def _push_health(self, event: HealthEvent) -> None:
        self._health.append(event)
        self._recent.append(event)
        self._tracer.event(
            event.kind,
            partition=event.partition,
            timestep=event.timestep,
            superstep=event.superstep,
            seconds=event.seconds,
            detail=event.detail,
        )

    def health_events(self) -> list[HealthEvent]:
        with self._lock:
            return list(self._health)

    def check_stalled(self) -> HealthEvent | None:
        """Flag the in-flight round when it exceeds the staleness threshold.

        Called by the watchdog thread and at snapshot ticks; at most one
        ``stalled`` event per round.  The suspect is the live partition whose
        telemetry is oldest (never-seen partitions first); a quarantined one
        is silent by decision and never named.
        """
        now = self._clock()
        with self._lock:
            if self._round is None or self._stall_flagged:
                return None
            phase, t, s, started = self._round
            age = now - started
            if age < self.config.stall_after_s:
                return None
            self._stall_flagged = True
            suspect = min(
                (p for p in range(self.num_partitions) if p not in self._retired),
                key=lambda p: self.last_seen[p] if self.last_seen[p] is not None else -1.0,
                default=None,
            )
            event = HealthEvent(
                kind="stalled",
                partition=suspect,
                timestep=t,
                superstep=s,
                wall_s=now - self._started,
                seconds=age,
                detail=(
                    f"{phase} round open for {age:.2f}s "
                    f"(threshold {self.config.stall_after_s:g}s); "
                    f"partition {suspect} silent longest"
                ),
            )
            self._push_health(event)
            self._export_latest()
            return event

    def _partition_series(self) -> tuple[list[float], list[float], list[float], list[int]]:
        """Per-partition cumulative ``(busy_s, compute_s, send_s, messages)``,
        folded from the collector's step records."""
        n = self.num_partitions
        busy, compute, send, messages = [0.0] * n, [0.0] * n, [0.0] * n, [0] * n
        for r in self.metrics.step_records:
            p = r.partition
            busy[p] += r.busy_s
            compute[p] += r.compute_s
            send[p] += r.send_s
            messages[p] += r.messages_sent
        return busy, compute, send, messages

    def _detect_stragglers(self, now: float, busy: list[float]) -> list[int]:
        """Median-based straggler attribution over the last snapshot window."""
        n = self.num_partitions
        if n < 2:
            return []
        deltas = [busy[p] - self._busy_at_snap[p] for p in range(n)]
        med = sorted(deltas)[n // 2]
        cfg = self.config
        stragglers = [
            p
            for p in range(n)
            if deltas[p] > cfg.straggler_factor * med and deltas[p] - med > cfg.straggler_min_s
        ]
        phase, t, s = self._current
        for p in stragglers:
            if p in self._flagged_stragglers:
                continue  # still the same straggler; don't spam
            ratio = deltas[p] / med if med > 0 else float("inf")
            self._push_health(
                HealthEvent(
                    kind="straggler",
                    partition=p,
                    timestep=t,
                    superstep=s,
                    wall_s=now - self._started,
                    seconds=deltas[p],
                    detail=(
                        f"busy {deltas[p]:.3f}s this window vs median {med:.3f}s "
                        + (f"({ratio:.1f}x)" if ratio != float("inf") else "(median idle)")
                    ),
                )
            )
        self._flagged_stragglers = set(stragglers)
        return stragglers

    # -- snapshots ---------------------------------------------------------------------

    def snapshot(self, force: bool = False) -> dict[str, Any] | None:
        """Build one snapshot record; append to the ring; push to exporters."""
        now = self._clock()
        with self._lock:
            if not force and self._last_snap is not None and (
                now - self._last_snap < self.config.interval_s
            ):
                return None
            self.check_stalled()
            busy, compute, send, messages = self._partition_series()
            stragglers = self._detect_stragglers(now, busy)
            self._last_snap = now
            self._busy_at_snap = busy
            phase, t, s = self._current
            peak = max(busy, default=0.0)
            partitions = [
                {
                    "partition": p,
                    "busy_s": round(busy[p], 6),
                    "compute_s": round(compute[p], 6),
                    "send_s": round(send[p], 6),
                    "messages": messages[p],
                    "heartbeats": self.heartbeats[p],
                    "utilization": round(busy[p] / peak, 6) if peak > 0 else 0.0,
                    "last_seen_age_s": (
                        round(now - self.last_seen[p], 6)
                        if self.last_seen[p] is not None
                        else None
                    ),
                }
                for p in range(self.num_partitions)
            ]
            record = {
                "schema": LIVE_SCHEMA_VERSION,
                "kind": "live_snapshot",
                "seq": self._seq,
                "wall_s": round(now - self._started, 6),
                "phase": phase,
                "timestep": t,
                "superstep": s,
                "progress": {
                    "timesteps_done": self.metrics.num_timesteps_executed(),
                    "num_timesteps": self.num_timesteps,
                    "supersteps": self.metrics.total_supersteps(),
                },
                "totals": self.metrics.summary(),
                "partitions": partitions,
                "sources": self._aggregate_sources(),
                "health": {
                    "stragglers": stragglers,
                    "stalled": self._stall_flagged,
                    "recent": [e.as_dict() for e in self._recent],
                },
            }
            self._seq += 1
            self.snapshots.append(record)
            self._export_latest()
            return record

    def _aggregate_sources(self) -> dict[str, Any]:
        """Sum host-published source stats (cache/prefetch counters)."""
        agg: dict[str, Any] = {}
        for stats in self.source_stats.values():
            for key, value in stats.items():
                if key == "partition":
                    continue
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    agg[key] = agg.get(key, 0) + value
        return agg

    def _export_latest(self) -> None:
        if not self.snapshots:
            return
        latest = self.snapshots[-1]
        for exporter in self._exporters:
            try:
                exporter.export(latest)
            except OSError:  # pragma: no cover - exporter target vanished
                pass

    # -- totals ------------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Cumulative totals: the run collector's ``summary()``, read under the lock."""
        with self._lock:
            return self.metrics.summary()


class HeartbeatMonitor:
    """Daemon thread probing for stalled rounds while the driver blocks.

    The driver thread only reaches :class:`LiveMetrics` between protocol
    rounds; when a gather wedges (a dead or silent worker), nothing would
    ever flag it.  This thread wakes every ``interval_s`` and runs
    :meth:`LiveMetrics.check_stalled`, which emits at most one ``stalled``
    event per round and pushes the updated snapshot to exporters so
    ``tibsp top`` shows the stall as it happens.
    """

    def __init__(self, live: LiveMetrics, interval_s: float) -> None:
        self._live = live
        self._interval = max(0.05, float(interval_s))
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="tibsp-live-heartbeat", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._live.check_stalled()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
