"""Failure taxonomy, retry policy, and structured run failures.

Recovery needs exactly one bit from an exception: *is rebuilding the failed
host from the last durable boundary worth trying?*
:class:`RecoverableError` is the marker that says yes — infrastructure
failures (a dead worker process, a wedged connection, a corrupt reply stream, a
transient slice-load error) subclass it; deterministic application bugs
(the user's ``compute`` raising) do not, because replaying them would fail
identically.

When bounded retries are exhausted the run does not hang and does not lose
the work already barriered: a :class:`RunFailure` (failure log + the reason
the last retry died) is either attached to the partial
:class:`~repro.core.results.AppResult` (graceful degradation) or raised as
a :class:`RunFailureError` that still carries the partial result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FailureRecord",
    "InjectedFault",
    "RecoverableError",
    "RecoveryPolicy",
    "RunFailure",
    "RunFailureError",
]


class RecoverableError(RuntimeError):
    """Marker: an infrastructure failure that checkpoint replay may cure.

    Attributes
    ----------
    partition:
        The partition whose worker/host failed, when known (else ``None``).
    """

    def __init__(self, message: str, partition: int | None = None) -> None:
        super().__init__(message)
        self.partition = partition


class InjectedFault(RecoverableError):
    """A scripted fault fired (e.g. a failed slice load) — transient by design."""


# The protocol's failures — WorkerLost, GatherTimeout, and the recoverable
# worker-error reply — live in repro.runtime.protocol, where they also
# subclass WorkerError.  This module stays dependency-free.


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded-retry policy for recoverable failures.

    Attributes
    ----------
    max_retries:
        Recovery attempts allowed *per protocol round*, shared by every
        partition that fails in it — independent transient faults spread
        over a long run each get a fresh budget, while a persistent failure
        at one boundary stays bounded.
    backoff_s / backoff_factor:
        Exponential backoff actually slept between retries (attempt *n*
        sleeps ``backoff_s * backoff_factor**(n-1)``).  Kept small by
        default; real deployments would use seconds.
    on_exhausted:
        ``"raise"`` (default) raises :class:`RunFailureError`;
        ``"degrade"`` returns the partial result with ``result.failure``
        set — the graceful-degradation mode.
    quarantine:
        When True, a partition that exhausts its retry budget is
        *quarantined* instead of failing the run: its worker is torn down,
        its rounds report empty halted results, and deliveries addressed
        to it are dropped (counted).  The run completes with
        ``result.failure`` still ``None``; ``result.degraded_partitions``
        names the partition and its last ``result.failure_log`` entry reads
        ``action="quarantine"``.
    """

    max_retries: int = 2
    backoff_s: float = 0.01
    backoff_factor: float = 2.0
    on_exhausted: str = "raise"
    quarantine: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.on_exhausted not in ("raise", "degrade"):
            raise ValueError("on_exhausted must be 'raise' or 'degrade'")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_factor ** max(0, attempt - 1)


@dataclass(frozen=True)
class FailureRecord:
    """One entry of a run's failure log (also emitted as trace events)."""

    #: The error's class name: WorkerLost | GatherTimeout | RecoverableWorkerError
    #: for a repair; GatherTimeout | WorkerError (a corrupt frame) for a resend's cure
    kind: str
    timestep: int
    superstep: int
    partition: int | None
    attempt: int
    error: str
    action: str  #: retry | quarantine | raise | degrade

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "timestep": self.timestep,
            "superstep": self.superstep,
            "partition": self.partition,
            "attempt": self.attempt,
            "error": self.error,
            "action": self.action,
        }


@dataclass
class RunFailure:
    """Structured description of a run that could not be fully recovered.

    Attached to the partial :class:`~repro.core.results.AppResult` in
    graceful-degradation mode, or carried by :class:`RunFailureError`.
    """

    reason: str
    timestep: int
    failure_log: list[FailureRecord] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "reason": self.reason,
            "timestep": self.timestep,
            "failures": [r.as_dict() for r in self.failure_log],
        }


class RunFailureError(RuntimeError):
    """Raised when retries are exhausted and the policy says ``"raise"``.

    Carries the structured :class:`RunFailure` and the partial result, so
    callers choosing to catch it lose nothing over degrade mode.
    """

    def __init__(self, failure: RunFailure, partial: Any = None) -> None:
        super().__init__(
            f"run failed at timestep {failure.timestep} after "
            f"{len(failure.failure_log)} failure(s): {failure.reason}"
        )
        self.failure = failure
        self.partial = partial
