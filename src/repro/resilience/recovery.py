"""Failure taxonomy, retry policy, and structured run failures.

Recovery needs exactly one bit from an exception: *is rebuilding the failed
host from the last durable boundary worth trying?*
:class:`RecoverableError` is the marker that says yes — infrastructure
failures (a dead worker process, a wedged connection, a corrupt reply stream, a
transient slice-load error) subclass it; deterministic application bugs
(the user's ``compute`` raising) do not, because replaying them would fail
identically.

When bounded retries are exhausted the run does not hang and does not lose
the work already barriered: a :class:`RunFailure` (the reason the last
retry died, and the timestep) is either attached to the partial
:class:`~repro.core.results.AppResult` (graceful degradation) or raised as
a :class:`RunFailureError` that still carries the partial result.  The
failure records themselves are the result's ``failure_log``, stated once.
"""

from __future__ import annotations

from typing import Any

from .._value import Value

__all__ = [
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
# subclass WorkerError.  This module imports nothing but the import-free
# ``repro._value``.


class RecoveryPolicy(Value):
    """Bounded-retry policy for recoverable failures.

    Attributes
    ----------
    max_retries:
        Recovery attempts allowed *per protocol round*, shared by every
        partition that fails in it — independent transient faults spread
        over a long run each get a fresh budget, while a persistent failure
        at one boundary stays bounded.
    backoff_s:
        Exponential backoff actually slept between retries (attempt *n*
        sleeps ``backoff_s * 2**(n-1)``).  Kept small by default; real
        deployments would use seconds.
    on_exhausted:
        What a partition that exhausts its retry budget does to the run.
        ``"raise"`` (default) raises :class:`RunFailureError`;
        ``"degrade"`` returns the partial result with ``result.failure``
        set — the graceful-degradation mode; ``"quarantine"`` keeps the run
        going without the partition: its worker is torn down, its rounds
        report empty halted results, and deliveries addressed to it are
        dropped (counted).  A quarantined run completes with
        ``result.failure`` still ``None``; ``result.degraded_partitions``
        names the partition and its last ``result.failure_log`` entry reads
        ``action="quarantine"``.
    """

    __slots__ = ("max_retries", "backoff_s", "on_exhausted")

    def __init__(
        self, max_retries: int = 2, backoff_s: float = 0.01, on_exhausted: str = "raise"
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if on_exhausted not in ("raise", "degrade", "quarantine"):
            raise ValueError("on_exhausted must be 'raise', 'degrade' or 'quarantine'")
        self.max_retries, self.backoff_s, self.on_exhausted = max_retries, backoff_s, on_exhausted

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based): doubling from ``backoff_s``."""
        return self.backoff_s * 2 ** max(0, attempt - 1)


class RunFailure(Value):
    """Structured description of a run that could not be fully recovered.

    Attached to the partial :class:`~repro.core.results.AppResult` in
    graceful-degradation mode, or carried by :class:`RunFailureError`.
    """

    __slots__ = ("reason", "timestep")

    def __init__(self, reason: str, timestep: int) -> None:
        self.reason, self.timestep = reason, timestep

    def as_dict(self) -> dict[str, Any]:
        return {"reason": self.reason, "timestep": self.timestep}


class RunFailureError(RuntimeError):
    """Raised when retries are exhausted and the policy says ``"raise"``.

    Carries the structured :class:`RunFailure` and the partial result
    (whose ``failure_log`` holds the run's failure records), so callers
    choosing to catch it lose nothing over degrade mode.
    """

    def __init__(self, failure: RunFailure, partial: Any) -> None:
        super().__init__(
            f"run failed at timestep {failure.timestep} after "
            f"{len(partial.failure_log)} failure(s): {failure.reason}"
        )
        self.failure = failure
        self.partial = partial
