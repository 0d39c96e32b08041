"""A model check of the protocol core: one ``Agent`` and the driver's
``Gather`` over an adversarial in-memory channel.

Each step of the state machine is one exchange — the driver posts a command
for one of the seven host ops and gathers its reply — under a script of
adversary moves, one per event: lose, duplicate or reorder commands; drop,
duplicate, reorder or corrupt replies; replay any envelope any earlier
incarnation sent; close the window early; kill the agent.  The agent's own
fault plan fires on top.  A failed exchange is repaired as the supervisor
repairs it: respawn at the next incarnation, sequence numbers from 0.
Invariants, on every schedule:

* a host executes each ``(incarnation, seq)`` at most once;
* the reply an exchange ends on — accepted, or a reported error — is the
  awaited command's, from the awaited incarnation: none crosses
  incarnations;
* every exchange ends, in accept or fail, within a bounded number of events.

The last tests show the machine finds bugs: with the incarnation guard or
the stale-sequence check taken out of a copy of the protocol module, it fails.
"""

import inspect
import types
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from repro.resilience import AT_EOT, FAULT_KINDS, FaultPlan, FaultSpec, RecoveryPolicy
from repro.runtime import protocol
from repro.runtime.host import HOST_OPS

POLICY = RecoveryPolicy(max_retries=2, backoff_s=0.0)
#: The call coordinate each op carries (a merge round is timestep -1).
SUPERSTEP = {"eot": AT_EOT}
#: What a corrupt frame is to the driver: bytes that do not decode.
GARBAGE = b"garbage"
#: More events than any exchange needs once the adversary's script runs out.
EVENT_LIMIT = 64

SCHEDULES = settings(
    max_examples=1000,
    stateful_step_count=5,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(HealthCheck),
)

#: The command an exchange posts: one of the seven host ops, at a timestep.
CALLS = st.sampled_from([(op, t) for op in HOST_OPS for t in (-1, 0, 1)])

#: One adversary move per driver event, with the index of the frame it hits.
MOVES = [
    (how, i)
    for how in ("pass", "lose-command", "dup-command", "swap-commands", "drop", "dup",
                "reorder", "corrupt", "replay", "late", "kill")
    for i in range(4)
]
#: A script of up to six moves, drawn as one number (one draw keeps a
#: thousand schedules fast); its base-``len(MOVES)`` digits are the moves.
SCRIPTS = st.integers(0, len(MOVES) ** 6 - 1)


def _script(number):
    while number:
        number, move = divmod(number, len(MOVES))
        yield MOVES[move]

#: One scripted fault the agent fires on top of the adversary, or none: every
#: kind at every round-call coordinate, for the first two incarnations.
SPECS = [None] + [
    FaultSpec(kind, timestep, 0, superstep=superstep, delay_s=0.0, incarnation=incarnation)
    for kind in FAULT_KINDS
    for timestep in (-1, 0, 1)
    for superstep in ([0] if kind == "fail_load" else [None, 0, AT_EOT])
    for incarnation in (0, 1)
]


class _Host:
    """Answers every op with the command's own payload, counting executions."""

    class partition:
        partition_id = 0

    def __init__(self, executions: Counter) -> None:
        self.executions = executions

    def handle(self, op, timestep, superstep, payload, *, replay=False):
        self.executions[payload] += 1
        assert self.executions[payload] == 1, f"executed {payload} twice"
        return ("done", payload)


def protocol_machine(proto):
    """The state machine over ``proto``'s ``Agent`` and ``Gather``."""

    class ProtocolMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.executions = Counter()
            self.history = []  # every envelope any incarnation sent
            self.incarnation = -1

        @initialize(spec=st.sampled_from(SPECS))
        def start(self, spec):
            self.plan = None if spec is None else FaultPlan([spec])
            self._respawn()

        def _respawn(self):
            self.incarnation += 1
            self.agent = proto.Agent(_Host(self.executions), self.plan, self.incarnation)
            self.alive = True
            self.next_seq = 0
            # A new session: nothing queued on the old connection survives,
            # but the adversary may still replay it from history.
            self.to_agent, self.to_driver = [], []

        @rule(call=CALLS, script=SCRIPTS)
        def exchange(self, call, script):
            op, timestep = call
            seq = self.next_seq
            self.next_seq += 1
            command = (seq, op, False, timestep, SUPERSTEP.get(op, 0), (self.incarnation, seq))
            gather = proto.Gather(seq, self.incarnation, POLICY, 0)
            self.to_agent.append(command)
            moves = _script(script)
            for event in range(EVENT_LIMIT):
                how, i = next(moves, ("pass", 0))
                self._interfere(how, i, seq)
                self._deliver()
                if how == "late":  # the window closes before anything is read
                    verdict = gather.on_timeout(float(event))
                elif self.to_driver:
                    frame = self.to_driver.pop(0)
                    if frame is GARBAGE:
                        verdict = gather.on_corrupt(ValueError("garbage"), float(event))
                    else:
                        verdict = gather.on_reply(frame, float(event))
                elif not self.alive:
                    verdict = gather.on_eof(EOFError("session closed"))
                else:
                    verdict = gather.on_timeout(float(event))
                if verdict is None:
                    continue
                verb, value = verdict
                if verb == proto.RESEND:
                    self.to_agent.append(command)
                    continue
                self._check_end(verb, value, seq)
                return
            raise AssertionError(f"exchange {seq} never ended")

        def _deliver(self):
            """The agent takes every command queued for it, in order."""
            queued, self.to_agent = self.to_agent, []
            for command in queued if self.alive else ():
                for verb, value in self.agent.on_command(command):
                    if verb == proto.SEND:
                        self.to_driver.append(value)
                        self.history.append(value)
                    elif verb == proto.CORRUPT:
                        self.to_driver.append(GARBAGE)
                    elif verb == proto.CLOSE:
                        self.alive = False
                    # SLEEP: the channel has no clock; lateness is a timeout.

        def _interfere(self, how, i, want):
            if how == "kill":
                self.alive = False
            elif how == "replay":
                # Any envelope any incarnation sent; one carrying the awaited
                # sequence number, when there is one.
                pool = [e for e in self.history if e[0] == want] or self.history
                if pool:
                    self.to_driver.insert(0, pool[i % len(pool)])
            elif how.endswith("command"):
                if self.to_agent:
                    i %= len(self.to_agent)
                    if how == "dup-command":
                        self.to_agent.insert(i, self.to_agent[i])
                    else:
                        del self.to_agent[i]
            elif how == "swap-commands":
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

        def _check_end(self, verb, value, want):
            awaited = (self.incarnation, want)
            if verb == proto.ACCEPT:
                assert value == ("done", awaited), f"accepted {value} waiting for {awaited}"
                return
            assert verb == proto.FAIL
            if isinstance(value, proto.RecoverableWorkerError):
                errors = {(e[1], e[0]) for e in self.history if e[2][0] == "error"}
                assert awaited in errors, f"accepted another exchange's error waiting for {awaited}"
            self._respawn()  # as the supervisor repairs a failed partition

    return ProtocolMachine


def test_agent_and_gather_hold_on_every_schedule():
    run_state_machine_as_test(protocol_machine(protocol), settings=SCHEDULES)


def _mutant(old: str, new: str):
    """A copy of the protocol module with ``old`` replaced by ``new``."""
    source = inspect.getsource(protocol)
    assert source.count(old) == 1, old
    module = types.ModuleType("repro.runtime.protocol_mutant")
    module.__package__ = "repro.runtime"
    exec(compile(source.replace(old, new), protocol.__file__, "exec"), module.__dict__)
    return module


_STALE = "if seq < self.want_seq or incarnation < self.incarnation:"
MUTANTS = {
    "incarnation-guard": (_STALE, "if seq < self.want_seq:"),
    "stale-sequence-check": (_STALE, "if incarnation < self.incarnation:"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_model_finds_a_protocol_without_its_guard(mutant):
    machine = protocol_machine(_mutant(*MUTANTS[mutant]))
    with pytest.raises(AssertionError, match="accepted"):
        run_state_machine_as_test(machine, settings=settings(SCHEDULES, phases=[Phase.generate]))
