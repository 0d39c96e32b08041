"""Application results returned by the TI-BSP engine."""

from __future__ import annotations

from typing import Any

from .._value import Value
from ..runtime.metrics import MetricsCollector

__all__ = ["AppResult"]


class AppResult(Value):
    """Everything a TI-BSP run produced.

    Attributes
    ----------
    outputs:
        Records emitted via ``ctx.output`` during compute/end_of_timestep,
        as ``(timestep, subgraph_id, record)`` tuples in emission order.
    merge_outputs:
        Records emitted during the Merge phase, as ``(subgraph_id, record)``.
    states:
        Final per-subgraph state dicts (subgraph id → dict).
    metrics:
        The :class:`~repro.runtime.metrics.MetricsCollector` for the run.
    timesteps_executed:
        Number of timesteps actually run (may be fewer than the collection's
        length when the application halted early — e.g. TDSP on small-world
        graphs, Section IV-B).
    halted_early:
        True when the While-style halt condition ended the run.
    trace:
        The :class:`~repro.observability.RunTrace` recorded when the run
        was configured with ``EngineConfig(tracing=...)``; ``None``
        otherwise.  Use ``result.trace.write(out_dir, manifest)`` to emit
        the Perfetto trace, the JSONL event log, and the run manifest.
    failure:
        ``None`` for a fully completed run.  In graceful-degradation mode
        (``RecoveryPolicy(on_exhausted="degrade")``), the structured
        :class:`~repro.resilience.recovery.RunFailure` describing why the
        run stopped — outputs/metrics then cover only the recovered prefix.
    failure_log:
        Every :class:`~repro.runtime.metrics.FailureRecord` the recovery
        loop handled, including faults that were successfully retried
        (empty for fault-free runs): the collector's ``failures`` list,
        which ``MetricsCollector.from_events`` rebuilds from the event log.
        A resumed run's includes the failures before its checkpoint.
    recovery_actions:
        The repairs the supervisor completed, in order: the collector's
        ``repairs`` list of the :class:`~repro.runtime.metrics.RespawnRecord`
        / :class:`~repro.runtime.metrics.ProtocolRetryRecord` objects it
        folded (``kind`` ``worker_respawn`` / ``protocol_retry``).  Empty for
        fault-free runs; a resumed run's includes the repairs before its
        checkpoint.
    degraded_partitions:
        Partitions quarantined by graceful exhaustion
        (``RecoveryPolicy(on_exhausted="quarantine")``), sorted.  A non-empty list
        means outputs/states silently exclude these partitions'
        contributions from the quarantine point on.
    protocol_stats:
        Driver-side wire-protocol counters (commands sent, idempotent
        resends, cured protocol retries, duplicate replies dropped by
        sequence-number dedup) — populated by the process executor's
        hardened protocol, ``{}`` for in-process executors.
    """

    __slots__ = (
        "outputs", "merge_outputs", "states", "metrics", "timesteps_executed",
        "halted_early", "trace", "failure", "failure_log", "recovery_actions",
        "degraded_partitions", "protocol_stats",
    )

    def __init__(
        self, outputs: list[tuple[int, int, Any]] | None = None,
        merge_outputs: list[tuple[int, Any]] | None = None,
        states: dict[int, dict] | None = None, metrics: MetricsCollector | None = None,
        timesteps_executed: int = 0, halted_early: bool = False, trace: Any | None = None,
        failure: Any | None = None, failure_log: list[Any] | None = None,
        recovery_actions: list[Any] | None = None,
        degraded_partitions: list[int] | None = None,
        protocol_stats: dict[str, int] | None = None,
    ) -> None:
        self.outputs = [] if outputs is None else outputs
        self.merge_outputs = [] if merge_outputs is None else merge_outputs
        self.states = {} if states is None else states
        self.metrics, self.timesteps_executed = metrics, timesteps_executed
        self.halted_early, self.trace, self.failure = halted_early, trace, failure
        self.failure_log = [] if failure_log is None else failure_log
        self.recovery_actions = [] if recovery_actions is None else recovery_actions
        self.degraded_partitions = [] if degraded_partitions is None else degraded_partitions
        self.protocol_stats = {} if protocol_stats is None else protocol_stats

    @property
    def total_wall_s(self) -> float:
        """Simulated application makespan (0.0 when metrics are absent)."""
        return self.metrics.total_wall() if self.metrics else 0.0
