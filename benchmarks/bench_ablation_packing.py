"""Ablation: GoFS temporal packing density (Section IV-A/D design choice).

The paper packs 10 instances per slice file so disk access is amortized —
Fig 6's every-10th-timestep bump is the visible cost, the invisible benefit
is not paying it every timestep.  Sweeping packing ∈ {1, 5, 10, 25} shows
the trade: packing 1 loads on every timestep a partition reads (most load
events, highest total load time); large packs load rarely but read more at
once.  A partition reads a pack's bytes when its compute first reads a row of
it, so the load events are the distinct (partition, pack) pairs TDSP's wave
reads from.
"""

import numpy as np
import pytest

from repro.algorithms import TDSPComputation
from repro.analysis import render_table
from repro.core import EngineConfig, run_application
from repro.runtime import CostModel
from repro.storage import GoFS

from conftest import INSTANCES, SCALE, emit

PACKINGS = (1, 5, 10, 25)


def test_ablation_temporal_packing(benchmark, datasets, partitioned, tmp_path_factory):
    root = tmp_path_factory.mktemp("packing")
    pg = partitioned("CARN", 6)
    collection = datasets["CARN"]["road"]
    config = EngineConfig(cost_model=CostModel.for_scale(SCALE))

    def run_all():
        rows = []
        for packing in PACKINGS:
            store = str(root / f"p{packing}")
            GoFS.write_collection(store, pg, collection, packing=packing)
            views = GoFS.partition_views(store)
            began = [[] for _ in views]  # bytes projected as each timestep began
            for view, log in zip(views, began):
                def instance(t, view=view, log=log, real=view.instance):
                    log.append(view.bytes_projected)
                    return real(t)
                view.instance = instance
            res = run_application(
                TDSPComputation(0, halt_when_stalled=True), pg, collection,
                sources=views, config=config,
            )
            load_events = sum(len(v.load_events) for v in views)
            total_load = sum(s for v in views for _t, s in v.load_events)
            # The timesteps in which each partition read a row, and the packs
            # they fall in.
            read_packs = {
                (p, t // packing)
                for p, (view, log) in enumerate(zip(views, began))
                for t, before in enumerate(log)
                if (log[t + 1] if t + 1 < len(log) else view.bytes_projected) > before
            }
            rows.append(
                {
                    "packing": packing,
                    "load_events": load_events,
                    "packs_read": len(read_packs),
                    "total_load_s": round(total_load, 4),
                    "sim_wall_s": round(res.total_wall_s, 4),
                    "timesteps": res.timesteps_executed,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("ablation_packing", render_table(rows, title="Ablation — GoFS temporal packing (TDSP/CARN, 6 partitions)"))

    by_packing = {r["packing"]: r for r in rows}
    T = by_packing[1]["timesteps"]
    # One load per (partition, pack) whose rows the run read — at most one
    # per partition per pack of the timesteps run.
    for packing, row in by_packing.items():
        assert row["load_events"] == row["packs_read"] <= 6 * int(np.ceil(T / packing))
    # Amortization: per-event cost shrinks the total as packing grows.
    assert by_packing[10]["total_load_s"] < by_packing[1]["total_load_s"]
