"""Edge cases for analysis/timeline.py: empty runs, ragged frontiers, padding."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import frontier_matrix, frontier_totals
from repro.core import AppResult
from repro.partition import HashPartitioner, partition_graph
from repro.runtime.metrics import MetricsCollector
from tests.conftest import make_grid_template


@dataclass(frozen=True)
class FakeFrontier:
    timestep: int
    count: int


@dataclass(frozen=True)
class NoCountRecord:
    timestep: int


@pytest.fixture
def pg():
    return partition_graph(make_grid_template(4, 4), 2, HashPartitioner(seed=1))


class TestEmptyResults:
    def test_timestep_times_empty_run(self):
        assert MetricsCollector(2).timestep_series() == []

    def test_frontier_matrix_no_outputs(self, pg):
        res = AppResult(timesteps_executed=3)
        M = frontier_matrix(res, pg)
        assert M.shape == (3, 2)
        assert not M.any()

    def test_frontier_totals_zero_timesteps(self):
        res = AppResult()  # timesteps_executed defaults to 0
        assert frontier_totals(res).shape == (0,)


class TestRaggedFrontiers:
    def test_records_without_count_or_timestep_are_skipped(self, pg):
        res = AppResult(
            timesteps_executed=2,
            outputs=[
                (0, 0, FakeFrontier(timestep=0, count=4)),
                (0, 0, NoCountRecord(timestep=0)),  # no count attr
                (0, 1, "not a frontier record"),  # neither attr
            ],
        )
        M = frontier_matrix(res, pg)
        assert M.sum() == 4
        assert frontier_totals(res).tolist() == [4, 0]

    def test_out_of_range_timesteps_are_dropped(self, pg):
        res = AppResult(
            timesteps_executed=2,
            outputs=[
                (0, 0, FakeFrontier(timestep=5, count=3)),  # beyond T
                (0, 0, FakeFrontier(timestep=-1, count=3)),  # negative
                (1, 0, FakeFrontier(timestep=1, count=2)),
            ],
        )
        assert frontier_totals(res).tolist() == [0, 2]
        assert frontier_matrix(res, pg).sum() == 2

    def test_partition_attribution_follows_subgraph(self, pg):
        # emitting subgraph decides the column, not the tuple's timestep slot
        sgid = pg.subgraphs[-1].subgraph_id
        part = pg.subgraphs[sgid].partition_id
        res = AppResult(
            timesteps_executed=1,
            outputs=[(0, sgid, FakeFrontier(timestep=0, count=7))],
        )
        M = frontier_matrix(res, pg)
        assert M[0, part] == 7
        assert M.sum() == 7


class TestExplicitNumTimesteps:
    def test_padding_beyond_executed(self, pg):
        res = AppResult(
            timesteps_executed=1,
            outputs=[(0, 0, FakeFrontier(timestep=0, count=2))],
        )
        M = frontier_matrix(res, pg, num_timesteps=4)
        assert M.shape == (4, 2)
        assert M[0].sum() == 2 and not M[1:].any()
        assert frontier_totals(res, num_timesteps=4).tolist() == [2, 0, 0, 0]

    def test_truncation_below_executed(self, pg):
        res = AppResult(
            timesteps_executed=3,
            outputs=[
                (0, 0, FakeFrontier(timestep=0, count=1)),
                (2, 0, FakeFrontier(timestep=2, count=9)),  # beyond truncated T
            ],
        )
        totals = frontier_totals(res, num_timesteps=1)
        assert totals.tolist() == [1]
        assert frontier_matrix(res, pg, num_timesteps=1).sum() == 1

    def test_zero_is_valid(self, pg):
        res = AppResult(
            timesteps_executed=2,
            outputs=[(0, 0, FakeFrontier(timestep=0, count=1))],
        )
        assert frontier_matrix(res, pg, num_timesteps=0).shape == (0, 2)
        assert frontier_totals(res, num_timesteps=0).shape == (0,)

    def test_dtype_is_integral(self, pg):
        res = AppResult(timesteps_executed=1)
        assert frontier_matrix(res, pg).dtype == np.int64
