"""A model check of recovery: the real ``HostSupervisor`` and its journal,
over a ``Cluster`` whose channels are an adversarial in-memory wire.

Each partition is the real protocol ``Agent`` in front of a model host that
keeps a running digest of the payloads it applied; the driver side is the
real ``Cluster`` scatter/gather and ``Gather``.  Only the transport and the
checkpoint store are models: a channel delivers, loses, duplicates,
reorders, corrupts and replays frames — any envelope any incarnation sent —
closes the gather window early and kills the agent, one adversary move per
read; the checkpoint store keeps snapshot blobs in memory.  Each rule is one
exchange the engine makes: a ``superstep`` or ``merge`` round with
deliveries, an ``eot`` round, a query, a checkpoint (snapshot round, store,
``checkpointed``) or a kill between exchanges — so kills land at every
round and at checkpoint boundaries, and the agents' own fault plan fires on
top.  Invariants, on every schedule:

* every live host's digest equals the fault-free digest, and every answer
  the supervisor returns is the fault-free answer: a repaired host is
  restored from the right checkpoint and replays the whole journal since;
* a host executes each ``(incarnation, seq)`` at most once;
* deliveries addressed to a quarantined partition are dropped and counted,
  never applied.

The last tests show the machine finds bugs: a supervisor whose replay
skips an entry, restores from a stale checkpoint or clears its journal
before the checkpoint is durable, and a ``Gather`` without its incarnation
guard or its stale-sequence check, each fail it.
"""

import __future__
import inspect
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.resilience import AT_EOT, FAULT_KINDS, FaultPlan, FaultSpec, RecoveryPolicy
from repro.resilience import supervisor as supervisor_module
from repro.runtime import cluster as cluster_module
from repro.runtime import protocol
from repro.runtime.cluster import Cluster
from repro.runtime.host import ROUND_OPS

K = 3
POLICY = RecoveryPolicy(max_retries=3, backoff_s=0.0, on_exhausted="quarantine")
#: What a corrupt frame is to the driver: bytes that do not decode.
GARBAGE = b"garbage"
#: More reads than any exchange needs once the adversary's script runs out.
EVENT_LIMIT = 64

SCHEDULES = settings(
    max_examples=1000,
    stateful_step_count=6,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(HealthCheck),
)

#: One adversary move per channel read, with the index of the frame it hits;
#: a third of the alphabet lets the read pass.
MOVES = [("pass", 0)] * 11 + [
    (how, i)
    for how in ("lose-command", "dup-command", "swap-commands", "drop", "dup", "reorder",
                "corrupt", "replay", "late", "kill", "kill-after")
    for i in range(2)
]
#: A script of up to six moves for one exchange and its repairs, drawn as
#: one number (one draw keeps a thousand schedules fast); its
#: base-``len(MOVES)`` digits are the moves.
SCRIPTS = st.integers(0, len(MOVES) ** 6 - 1)

#: One scripted fault the agents fire on top of the adversary, or none:
#: every kind at every round coordinate, for the first two incarnations.
SPECS = [None] + [
    FaultSpec(kind, timestep, partition, superstep=superstep, delay_s=0.0,
              incarnation=incarnation)
    for kind in FAULT_KINDS
    for timestep in (-1, 0, 1)
    for partition in range(K)
    for superstep in ([0] if kind == "fail_load" else [0, 1, AT_EOT])
    for incarnation in (0, 1)
]


def _script(number):
    while number:
        number, move = divmod(number, len(MOVES))
        yield MOVES[move]


def _applied(digest, op, timestep, superstep, payload):
    """The running digest after a round's payload is applied."""
    return hash((digest, op, timestep, superstep, None if payload is None else tuple(payload)))


class _Host:
    """A host whose state is the running digest of what it applied."""

    def __init__(self, partition, incarnation, model):
        self.partition = SimpleNamespace(partition_id=partition)
        self.incarnation = incarnation
        self.model = model
        self.digest = 0  # genesis
        self.seq = None  # the command being executed, set by the channel

    def handle(self, op, timestep, superstep, payload, *, replay=False):
        p = self.partition.partition_id
        key = (p, self.incarnation, self.seq)
        self.model.executions[key] += 1
        assert self.model.executions[key] == 1, f"executed {key} twice"
        if op in ROUND_OPS:
            assert p not in self.model.quarantined, f"partition {p} applied {op} in quarantine"
            self.digest = _applied(self.digest, op, timestep, superstep, payload)
            return ("step", op, timestep, superstep, self.digest)
        if op == "restore":
            self.digest = payload
            return None
        if op == "snapshot":
            return self.digest
        return ("query", op, self.digest)


class _Channel:
    """One agent on the adversarial wire: ``post`` / ``receive`` / ``close``
    as a socket channel has them, each read preceded by one adversary move."""

    def __init__(self, agent, model):
        self.agent, self.model = agent, model
        self.partition = agent.host.partition.partition_id
        self.alive = True
        self.to_agent, self.to_driver = [], []
        self.want = -1  # the sequence number posted last
        self.reads = 0

    def post(self, command):
        if not self.alive:
            raise protocol.WorkerLost(f"partition {self.partition} is dead",
                                      partition=self.partition)
        self.to_agent.append(command)
        self.want, self.reads = command[0], 0

    def receive(self, deadline):
        self.reads += 1
        assert self.reads < EVENT_LIMIT, f"partition {self.partition}'s exchange never ended"
        how, i = next(self.model.adversary, ("pass", 0))
        self._interfere(how, i)
        self._deliver()
        if how == "kill-after":
            self.alive = False
        if how == "late":  # the window closes before anything is read
            raise protocol.GatherTimeout("late")
        if self.to_driver:
            frame = self.to_driver.pop(0)
            if frame is GARBAGE:
                raise protocol.WorkerError("garbage")
            return frame
        if not self.alive:
            raise EOFError("session closed")
        raise protocol.GatherTimeout("nothing to read")

    def close(self):
        self.alive = False
        self.to_agent.clear()
        self.to_driver.clear()

    def _deliver(self):
        """The agent takes every command queued for it, in order."""
        queued, self.to_agent = self.to_agent, []
        history = self.model.history[self.partition]
        for command in queued if self.alive else ():
            self.agent.host.seq = command[0]
            for verb, value in self.agent.on_command(command):
                if verb == protocol.SEND:
                    self.to_driver.append(value)
                    history.append(value)
                elif verb == protocol.CORRUPT:
                    self.to_driver.append(GARBAGE)
                elif verb == protocol.CLOSE:
                    self.alive = False
                # SLEEP: the wire has no clock; a delay is "late" or nothing.

    def _interfere(self, how, i):
        if how == "kill":
            self.alive = False
        elif how == "replay":
            # Any envelope any incarnation sent; one carrying the awaited
            # sequence number, when there is one.
            history = self.model.history[self.partition]
            pool = [e for e in history if e[0] == self.want] or history
            if pool:
                self.to_driver.insert(0, pool[i % len(pool)])
        elif how.endswith("command"):
            if self.to_agent:
                i %= len(self.to_agent)
                if how == "dup-command":
                    self.to_agent.insert(i, self.to_agent[i])
                elif how == "lose-command":
                    del self.to_agent[i]
                else:
                    self.to_agent.reverse()
        elif how in ("drop", "dup", "reorder", "corrupt") and self.to_driver:
            i %= len(self.to_driver)
            if how == "drop":
                del self.to_driver[i]
            elif how == "dup":
                self.to_driver.insert(i, self.to_driver[i])
            elif how == "reorder":
                self.to_driver.insert(0, self.to_driver.pop(i))
            else:
                self.to_driver[i] = GARBAGE


class _ModelCluster(Cluster):
    """The real :class:`Cluster` with every partition on a :class:`_Channel`."""

    def __init__(self, model, plan):
        self.model = model
        pg = SimpleNamespace(num_partitions=K, subgraphs=(), partitions=(None,) * K)
        super().__init__(pg, None, None, [None] * K, fault_plan=plan)

    def _open(self, p):
        host = _Host(p, self.incarnations[p], self.model)
        self._channels[p] = _Channel(protocol.Agent(host, self.fault_plan, host.incarnation),
                                     self.model)


class _Checkpoints:
    """The checkpoint store: blobs in memory, durable once ``write`` returns."""

    def __init__(self):
        self.saved = {}

    def write(self, name, parts):
        self.saved[name] = list(parts)

    def load(self, name, partitions):
        return SimpleNamespace(parts={p: self.saved[name][p] for p in partitions})


class _Recorder:
    """The run's recorder: the model checks host state, not records."""

    def emit(self, record):
        pass

    def event(self, kind, **fields):
        pass

    def quarantined(self, *args):
        pass


def recovery_machine(supervisor_class):
    """The state machine over ``supervisor_class`` and the real cluster."""

    class RecoveryMachine(RuleBasedStateMachine):
        @initialize(spec=st.sampled_from(SPECS))
        def start(self, spec):
            self.executions = Counter()
            self.history = [[] for _ in range(K)]  # every envelope each partition sent
            self.adversary = iter(())
            self.quarantined = set()
            self.cluster = _ModelCluster(self, None if spec is None else FaultPlan([spec]))
            self.checkpoints = _Checkpoints()
            self.supervisor = supervisor_class(
                self.cluster, POLICY, recorder=_Recorder(), manager=self.checkpoints
            )
            self.expected = [0] * K  # the fault-free digests
            self.dropped = 0  # messages addressed to quarantined partitions
            self.t, self.s = 0, 0

        def _exchange(self, script, op, timestep, superstep, payloads=None):
            self.adversary = _script(script)
            results = self.supervisor.round(op, timestep, superstep, payloads)
            self.quarantined = set(self.cluster.quarantined)
            return results

        def _check(self, results, answer):
            for p in range(K):
                if p not in self.quarantined:
                    want = answer(p)
                    assert results[p] == want, f"accepted {results[p]} for {want} on partition {p}"

        @rule(merge=st.booleans(), sizes=st.integers(0, 3 ** K - 1), script=SCRIPTS)
        def deliver(self, merge, sizes, script):
            op, t, s = ("merge", -1, self.s) if merge else ("superstep", self.t, self.s)
            payloads = []
            for p in range(K):
                sizes, n = divmod(sizes, 3)
                payloads.append([tuple(range(t, t + n))] * n)
            self.dropped += sum(len(f) for q in self.quarantined for f in payloads[q])
            results = self._exchange(script, op, t, s, payloads)
            for p in range(K):
                self.expected[p] = _applied(self.expected[p], op, t, s, payloads[p])
            self._check(results, lambda p: ("step", op, t, s, self.expected[p]))
            self.s += 1

        @rule(script=SCRIPTS)
        def end_of_timestep(self, script):
            t = self.t
            results = self._exchange(script, "eot", t, AT_EOT)
            for p in range(K):
                self.expected[p] = _applied(self.expected[p], "eot", t, AT_EOT, None)
            self._check(results, lambda p: ("step", "eot", t, AT_EOT, self.expected[p]))
            self.t, self.s = t + 1, 0

        @rule(op=st.sampled_from(["resident", "states"]), script=SCRIPTS)
        def query(self, op, script):
            results = self._exchange(script, op, self.t, self.s)
            self._check(results, lambda p: ("query", op, self.expected[p]))

        @precondition(lambda self: not self.cluster.quarantined)
        @rule(script=SCRIPTS)
        def checkpoint(self, script):
            # As the engine writes one: snapshot, store, then name the base.
            parts = self._exchange(script, "snapshot", self.t, AT_EOT)
            self._check(parts, lambda p: self.expected[p])
            if self.quarantined:
                return
            name = f"ck{len(self.checkpoints.saved)}"
            self.checkpoints.write(name, parts)
            self.supervisor.checkpointed(name)

        @rule(p=st.integers(0, K - 1))
        def kill(self, p):
            """The agent dies between exchanges (after a checkpoint, say)."""
            if p not in self.quarantined:
                self.cluster._channels[p].alive = False

        @invariant()
        def hosts_hold_the_fault_free_state(self):
            for p in range(K):
                if p not in self.quarantined:
                    digest = self.cluster._channels[p].agent.host.digest
                    assert digest == self.expected[p], f"partition {p} diverged"
            assert self.supervisor.dropped_messages == self.dropped

    return RecoveryMachine


def test_supervisor_repairs_every_schedule():
    run_state_machine_as_test(recovery_machine(supervisor_module.HostSupervisor),
                              settings=SCHEDULES)


def _mutant(cls, old: str, new: str):
    """``cls`` compiled again from its source with ``old`` replaced by
    ``new``, in its own module's namespace."""
    source = inspect.getsource(cls)
    assert source.count(old) == 1, old
    module = inspect.getmodule(cls)
    namespace = dict(vars(module))
    code = compile(source.replace(old, new), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[cls.__name__]


def _finds(machine):
    with pytest.raises(AssertionError, match="accepted|diverged"):
        run_state_machine_as_test(machine, settings=settings(SCHEDULES, phases=[Phase.generate]))


SUPERVISOR_MUTANTS = {
    "replay-skips-an-entry": ("for entry in entries:", "for entry in entries[1:]:"),
    "restore-from-a-stale-checkpoint": ("self.base = name", "self.base = self.base or name"),
    "journal-truncated-before-the-checkpoint-is-durable": (
        "        if op in ROUND_OPS:\n            self.rounds.append(",
        "        if op == 'snapshot':\n            self.rounds.clear()\n"
        "        if op in ROUND_OPS:\n            self.rounds.append(",
    ),
}


@pytest.mark.parametrize("mutant", SUPERVISOR_MUTANTS)
def test_the_model_finds_a_broken_repair(mutant):
    supervisor = _mutant(supervisor_module.HostSupervisor, *SUPERVISOR_MUTANTS[mutant])
    _finds(recovery_machine(supervisor))


_STALE = "if seq < self.want_seq or incarnation < self.incarnation:"
GATHER_MUTANTS = {
    "incarnation-guard": (_STALE, "if seq < self.want_seq:"),
    "stale-sequence-check": (_STALE, "if incarnation < self.incarnation:"),
}


@pytest.mark.parametrize("mutant", GATHER_MUTANTS)
def test_the_model_finds_a_protocol_without_its_guard(mutant, monkeypatch):
    monkeypatch.setattr(cluster_module, "Gather",
                        _mutant(protocol.Gather, *GATHER_MUTANTS[mutant]))
    _finds(recovery_machine(supervisor_module.HostSupervisor))
