"""Deterministic fault injection for TI-BSP runs.

The paper's platform runs on cloud VMs where workers die, pipes corrupt,
and hosts straggle.  Those failures are inherently nondeterministic; to
*test* the recovery machinery they must be anything but.  A
:class:`FaultPlan` is a seeded, picklable script of failures: each
:class:`FaultSpec` names a fault kind, the protocol coordinate at which it
fires — ``(timestep, superstep, partition)`` — and the worker *incarnation*
it targets.  Freshly respawned workers carry a higher incarnation, so a
fault injected at incarnation 0 does not re-fire after recovery (unless a
spec explicitly targets the respawned worker, which is how the
retries-exhausted path is tested).

Each kind names one behaviour and one repair, on every executor: the one
:class:`~repro.runtime.protocol.Agent` fires it, and the one
:class:`~repro.runtime.protocol.Gather` (or, past it, the supervisor)
repairs it.  The *host* kinds:

``kill``
    The agent closes its session before replying — the driver reads EOF
    (``WorkerLost``) and respawns the partition.
``delay``
    A straggler: the agent sleeps ``delay_s`` (the ``:d<SECONDS>`` token,
    or a seed-derived value) before replying.  With a gather timeout
    shorter than the delay this becomes a detected wedge; otherwise it is
    just visible recovery-free slowness.
``fail_load``
    The timestep's instance load, which superstep 0 opens, raises an
    I/O-style error (a failed GoFS slice read), reported as a *recoverable*
    worker error.  It names superstep 0 only: a spec reads its superstep
    as 0.

The *network-fault* kinds (:data:`NETWORK_FAULT_KINDS`) misbehave on the
reply after the round computed; the sequence-numbered protocol cures them
with an idempotent resend (a ``protocol_retry``), or by dropping the stale
frame, without a respawn:

``drop_frame``
    The reply vanishes.  The gather times out, resends the command, and the
    agent answers from its reply cache — no work is redone.
``dup_frame``
    The reply is delivered twice.  The driver consumes the first copy and
    discards the duplicate by sequence number (the dedup counter proves
    delivery stayed exactly-once).
``reorder``
    The previous round's reply is re-delivered ahead of the current one;
    the driver skips the stale frame by sequence number.
``corrupt_frame``
    The reply arrives as garbage bytes; the driver's resend fetches the
    cached good reply instead of declaring the worker lost.

Superstep coordinates: ``superstep`` in a spec may be an ordinary compute
superstep number (0 opens the timestep), the sentinel :data:`AT_EOT` (the
end-of-timestep protocol call), or ``None`` to match any call within the
timestep — which fires at the timestep's first call, superstep 0.
Merge-phase calls carry ``timestep == -1``.  Two specs may not name the
same exact call: only the first could fire.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "AT_EOT",
    "FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "parse_fault_specs",
]

#: Superstep sentinel for the ``end_of_timestep`` protocol call.
AT_EOT = -102

#: Kinds that misbehave on the wire *after* the round computed; the
#: idempotent retry protocol — not a respawn — is the cure.
NETWORK_FAULT_KINDS = ("drop_frame", "dup_frame", "reorder", "corrupt_frame")

FAULT_KINDS = ("kill", "delay", "fail_load", *NETWORK_FAULT_KINDS)

#: Default straggler delay when a ``delay`` spec does not set one (seconds).
_DEFAULT_DELAY_S = 0.05


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure at one protocol coordinate.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    timestep:
        Timestep of the protocol call the fault targets (``-1`` = merge).
    partition:
        Partition whose worker/host misbehaves.
    superstep:
        Compute superstep, :data:`AT_EOT`, or ``None`` to match any call
        in the timestep (``fail_load``: always 0).
    delay_s:
        Straggler sleep for ``delay`` faults; ``None`` derives a
        deterministic value from the plan seed.
    incarnation:
        Worker incarnation the spec targets (0 = the original spawn; each
        recovery respawn increments it).  A fault never outlives its
        incarnation, which is what makes recovery testable: the replay
        after restore does not re-trip the same failure.
    """

    kind: str
    timestep: int
    partition: int
    superstep: int | None = None
    delay_s: float | None = None
    incarnation: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.kind == "fail_load":
            if self.superstep not in (None, 0):
                raise ValueError(
                    "fail_load fails the instance load superstep 0 opens: it takes "
                    "s0 or no superstep, not another s<S> or eot"
                )
            object.__setattr__(self, "superstep", 0)

    def matches(self, timestep: int, superstep: int, partition: int, incarnation: int) -> bool:
        return (
            self.timestep == timestep
            and self.partition == partition
            and self.incarnation == incarnation
            and (self.superstep is None or self.superstep == superstep)
        )


class FaultPlan:
    """A seeded, picklable script of :class:`FaultSpec` failures.

    Each spec fires at most once per plan *instance* (workers hold their
    own copy; the incarnation guard is what prevents re-firing across
    respawns).  The seed only feeds derived quantities — currently the
    default straggler delay — so two runs with the same plan observe
    byte-identical fault behavior.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: list[FaultSpec] = list(specs)
        self.seed = int(seed)
        self._spent: set[int] = set()
        calls: dict[tuple, FaultSpec] = {}
        for spec in self.specs:
            if spec.superstep is None:
                continue
            call = (spec.timestep, spec.superstep, spec.partition, spec.incarnation)
            if call in calls:
                raise ValueError(
                    f"fault specs {calls[call]} and {spec} name the same call; "
                    "the second could never fire"
                )
            calls[call] = spec

    # -- construction ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the CLI mini-language (see :func:`parse_fault_specs`)."""
        return cls(parse_fault_specs(text), seed=seed)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __getstate__(self) -> dict:
        # Workers receive a fresh copy with nothing spent: firing state is
        # process-local by design (the incarnation guard carries the
        # cross-process semantics).
        return {"specs": self.specs, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.specs = state["specs"]
        self.seed = state["seed"]
        self._spent = set()

    # -- firing ------------------------------------------------------------------------

    def fire(
        self, timestep: int, superstep: int, partition: int, incarnation: int
    ) -> FaultSpec | None:
        """Return (and spend) the first armed spec, in plan order, matching this call."""
        for i, spec in enumerate(self.specs):
            if i in self._spent:
                continue
            if spec.matches(timestep, superstep, partition, incarnation):
                self._spent.add(i)
                return spec
        return None

    def delay_for(self, spec: FaultSpec) -> float:
        """The sleep for a ``delay`` spec (seed-derived when unset)."""
        if spec.delay_s is not None:
            return float(spec.delay_s)
        rng = random.Random((self.seed << 20) ^ hash((spec.timestep, spec.partition)))
        return _DEFAULT_DELAY_S * (0.5 + rng.random())


_SPEC_RE = re.compile(r"^(?P<kind>[a-z_]+)@(?P<parts>.+)$")


def parse_fault_specs(text: str) -> list[FaultSpec]:
    """Parse the CLI fault mini-language into specs.

    Grammar: comma/semicolon-separated entries of the form
    ``kind@t<T>[:s<S>|:eot]:p<P>[:d<DELAY>][:i<INC>]``, e.g.::

        kill@t1:s0:p0
        delay@t2:p1:d0.2
        fail_load@t3:p0:i0
        corrupt_frame@t1:eot:p2
    """
    specs: list[FaultSpec] = []
    for entry in re.split(r"[,;]", text):
        entry = entry.strip()
        if not entry:
            continue
        m = _SPEC_RE.match(entry)
        if m is None:
            raise ValueError(f"bad fault spec {entry!r}: expected kind@t<T>:p<P>[...]")
        kind = m.group("kind")
        timestep = partition = None
        superstep: int | None = None
        delay_s: float | None = None
        incarnation = 0
        for token in m.group("parts").split(":"):
            if token == "eot":
                superstep = AT_EOT
            elif token.startswith("t"):
                timestep = int(token[1:])
            elif token.startswith("s"):
                superstep = int(token[1:])
            elif token.startswith("p"):
                partition = int(token[1:])
            elif token.startswith("d"):
                delay_s = float(token[1:])
            elif token.startswith("i"):
                incarnation = int(token[1:])
            else:
                hint = ": a timestep opens at superstep 0, write s0" if token == "begin" else ""
                raise ValueError(f"bad fault spec token {token!r} in {entry!r}{hint}")
        if timestep is None or partition is None:
            raise ValueError(f"fault spec {entry!r} needs both t<T> and p<P>")
        specs.append(
            FaultSpec(
                kind,
                timestep,
                partition,
                superstep=superstep,
                delay_s=delay_s,
                incarnation=incarnation,
            )
        )
    if not specs:
        raise ValueError(f"no fault specs in {text!r}")
    return specs
