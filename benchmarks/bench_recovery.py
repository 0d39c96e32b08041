"""Recovery cost: what repairing one killed worker makes the run redo.

Under a single seeded worker kill on a cluster of >= 8 partitions, host
repair (respawn one worker, restore one partition, replay its journal)
must respawn exactly one worker, replay no more protocol rounds than the
run issued since its last checkpoint, and stay bit-identical to the
fault-free run.  (The comparison against the deleted full-cohort rollback —
8 vs 48 wasted superstep-units on this workload — is the frozen first line
of ``benchmarks/history/recovery.jsonl``.)

Wasted-work units are the journal rounds replayed onto the respawned
worker; recovery latency is the run's measured ``total_recovery_s``.  With
``--json`` the numbers land in ``BENCH_recovery.json`` and append to
``benchmarks/history/recovery.jsonl``.
"""


from repro.analysis import render_table
from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.generators import road_latency_collection, road_network
from repro.partition import MetisLikePartitioner, partition_graph
from repro.resilience import CheckpointConfig, FaultPlan, RecoveryPolicy

from conftest import INSTANCES, SCALE, SEED, emit

PARTITIONS = 8
TIMESTEPS = min(INSTANCES, 8)
CHECKPOINT_EVERY = 2
#: Kill mid-run, off a checkpoint boundary, so the journal has distance
#: to cover.
KILL_AT = max(3, (TIMESTEPS // 2) | 1)
KILLED_PARTITION = 3
FAULTS = f"kill@t{KILL_AT}:s1:p{KILLED_PARTITION}"


class Relay(TimeSeriesComputation):
    """Three-hop subgraph relay + temporal carry: enough supersteps per
    timestep that a repair has real work to replay."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT
    HOPS = 3

    def __init__(self, num_subgraphs):
        self.num_subgraphs = num_subgraphs

    def compute(self, ctx):
        nxt = (ctx.subgraph.subgraph_id + 1) % self.num_subgraphs
        if ctx.superstep == 0:
            carried = sum(m.payload for m in ctx.messages) if ctx.messages else 0
            ctx.state["seen"] = carried + ctx.subgraph.subgraph_id * 100 + ctx.timestep
            ctx.send_to_subgraph(nxt, ctx.state["seen"])
        elif ctx.superstep <= self.HOPS:
            for m in ctx.messages:
                ctx.state["seen"] += m.payload
            if ctx.superstep < self.HOPS:
                ctx.send_to_subgraph(nxt, ctx.state["seen"])
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.send_to_next_timestep(ctx.state["seen"] % 100003)
        ctx.output(ctx.state["seen"])


def _rounds_since_checkpoint(events):
    """Protocol rounds the driver issued between its last checkpoint and the
    kill, counted from the event log: one ``step`` per superstep /
    end-of-timestep round (partition 0's; superstep 0 opens a timestep)."""
    rounds = 0
    for e in events:
        if e["kind"] == "checkpoint_write":
            rounds = 0
        elif e["kind"] == "step" and e["partition"] == 0:
            rounds += 1
        elif e["kind"] == "worker_lost":
            return rounds
    raise AssertionError("the seeded kill never fired")


def test_recovery_cost(benchmark, emit_json, tmp_path):
    tpl = road_network(SCALE, seed=SEED)
    coll = road_latency_collection(tpl, TIMESTEPS, seed=SEED)
    pg = partition_graph(tpl, PARTITIONS, MetisLikePartitioner(seed=SEED))
    comp = Relay(len(pg.subgraphs))
    config = EngineConfig(
        tracing=True,
        checkpoint=CheckpointConfig(dir=tmp_path, every=CHECKPOINT_EVERY),
        faults=FaultPlan.parse(FAULTS, seed=SEED),
        recovery=RecoveryPolicy(backoff_s=0.0),
    )

    def run_both():
        return run_application(comp, pg, coll), run_application(comp, pg, coll, config=config)

    baseline, recovered = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # The kill was repaired bit-identically ...
    assert recovered.failure is None
    assert recovered.states == baseline.states
    assert recovered.outputs == baseline.outputs
    # ... by respawning exactly one worker ...
    respawns = [a for a in recovered.recovery_actions if a.kind == "worker_respawn"]
    assert [a.partition for a in respawns] == [KILLED_PARTITION]
    # ... which redid nothing the last checkpoint already covered.
    replayed = respawns[0].replayed_rounds
    since_checkpoint = _rounds_since_checkpoint(recovered.trace.event_records())
    assert 0 < replayed <= since_checkpoint

    latency = recovered.metrics.total_recovery_s()
    emit(
        "recovery",
        render_table(
            [
                {
                    "workers_respawned": len(respawns),
                    "replayed_rounds": replayed,
                    "rounds_since_checkpoint": since_checkpoint,
                    "recovery_latency_s": round(latency, 6),
                }
            ],
            title=(
                f"Recovery cost under {FAULTS} (Relay, {PARTITIONS} partitions, "
                f"{TIMESTEPS} timesteps, checkpoint every {CHECKPOINT_EVERY})"
            ),
        ),
    )
    emit_json(
        "recovery",
        {
            "dataset": "CARN",
            "algorithm": "Relay",
            "partitions": PARTITIONS,
            "timesteps": TIMESTEPS,
            "checkpoint_every": CHECKPOINT_EVERY,
            "fault": FAULTS,
            "workers_respawned": len(respawns),
            "replayed_rounds": replayed,
            "rounds_since_checkpoint": since_checkpoint,
            "recovery_latency_s": round(latency, 6),
            "results_bit_identical": True,
        },
    )
