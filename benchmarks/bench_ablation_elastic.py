"""Ablation: elastic VM scaling (Section IV-D's closing suggestion).

Replays finished runs under an on-demand VM policy (spin down after K idle
timesteps, boot on demand): TDSP's traveling frontier (Fig 7a) leaves
partitions idle for long stretches, so elasticity saves a meaningful share
of the VM bill; MEME's uniform activity (Fig 7c) leaves little to harvest —
quantifying the paper's intuition.
"""

import pytest

from repro.algorithms import MemeTrackingComputation, TDSPComputation
from repro.analysis import ElasticPolicy, render_table, simulate_elastic
from repro.core import EngineConfig, run_application
from repro.runtime import CostModel

from conftest import SCALE, emit


def test_ablation_elastic_scaling(benchmark, datasets, partitioned):
    config = EngineConfig(cost_model=CostModel.for_scale(SCALE))
    policy = ElasticPolicy(idle_timesteps=2, spinup_penalty_s=30.0, prefetch=1)

    def run_all():
        rows = []
        cases = [
            ("TDSP/CARN (wave)", "CARN",
             TDSPComputation(0, halt_when_stalled=True, root_pruning=False), "road"),
            ("MEME/WIKI (uniform)", "WIKI", MemeTrackingComputation(0), "tweets"),
        ]
        outcomes = {}
        for label, graph, comp, workload in cases:
            pg = partitioned(graph, 6)
            res = run_application(comp, pg, datasets[graph][workload], config=config)
            out = simulate_elastic(res, policy)
            outcomes[label] = out
            rows.append(
                {
                    "case": label,
                    "vm_timesteps": f"{out.vm_timesteps_elastic}/{out.vm_timesteps_static}",
                    "savings_%": round(100 * out.savings_fraction, 1),
                    "spinups": out.spinups,
                    "spinup_penalty_s": out.added_wall_s,
                }
            )
        return rows, outcomes

    rows, outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(
        "ablation_elastic",
        render_table(rows, title="Ablation — elastic VM scaling (on-demand policy, 6 partitions)"),
    )

    tdsp = outcomes["TDSP/CARN (wave)"]
    meme = outcomes["MEME/WIKI (uniform)"]
    # The wave workload leaves substantially more to harvest than the
    # uniform one (Section IV-D's premise).
    assert tdsp.savings_fraction > meme.savings_fraction
    assert tdsp.savings_fraction > 0.05
    benchmark.extra_info["savings"] = {
        k: round(v.savings_fraction, 3) for k, v in outcomes.items()
    }
