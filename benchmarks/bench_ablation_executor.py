"""Ablation: execution backend (serial / process clusters).

The serial backend is the deterministic default whose *simulated* wall-clock
reproduces the paper's figures; the process backend executes the same
TI-BSP protocol with real concurrency, one forked worker agent per
partition in its own address space — one-VM-per-partition in miniature.
(The socket executor is the same agents: forked ones without ``hosts``,
agents started elsewhere with them.)  This bench verifies both produce
identical algorithm results and reports their real wall-clock and identical
simulated ordering.
"""

import time

import numpy as np
import pytest

from repro.algorithms import TDSPComputation, tdsp_labels_from_result
from repro.analysis import render_table
from repro.core import EngineConfig, run_application
from repro.runtime import CostModel
from repro.storage import GoFS

from conftest import SCALE, emit

EXECUTORS = ("serial", "process")


def test_ablation_executor_backends(benchmark, datasets, partitioned, tmp_path_factory):
    pg = partitioned("CARN", 6)
    collection = datasets["CARN"]["road"]
    store = str(tmp_path_factory.mktemp("exec") / "carn")
    GoFS.write_collection(store, pg, collection)
    n = pg.template.num_vertices

    def run_all():
        rows = []
        labels = {}
        for executor in EXECUTORS:
            config = EngineConfig(
                executor=executor, cost_model=CostModel.for_scale(SCALE)
            )
            start = time.perf_counter()
            res = run_application(
                TDSPComputation(0, halt_when_stalled=True),
                pg,
                collection,
                sources=GoFS.partition_views(store),
                config=config,
            )
            real = time.perf_counter() - start
            labels[executor] = tdsp_labels_from_result(res, n)
            rows.append(
                {
                    "executor": executor,
                    "real_wall_s": round(real, 3),
                    "sim_wall_s": round(res.total_wall_s, 4),
                    "timesteps": res.timesteps_executed,
                }
            )
        return rows, labels

    rows, labels = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("ablation_executor", render_table(rows, title="Ablation — execution backend (TDSP/CARN, 6 partitions)"))

    # All backends compute identical TDSP labels.
    base = np.nan_to_num(labels["serial"], posinf=1e18)
    for executor in EXECUTORS[1:]:
        np.testing.assert_allclose(np.nan_to_num(labels[executor], posinf=1e18), base)
    # And execute the same number of timesteps.
    assert len({r["timesteps"] for r in rows}) == 1
