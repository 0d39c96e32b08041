"""Hashtag aggregation correctness (eventually dependent pattern)."""

import numpy as np
import pytest

from repro.algorithms.hashtag import (
    HashtagAggregationComputation,
    HashtagSummary,
    largest_subgraph_in_partition,
)
from repro.algorithms.reference import hashtag_count_series
from repro.core import run_application
from repro.generators import (
    BackgroundHashtagPopulator,
    CompositePopulator,
    SIRTweetPopulator,
    smallworld_network,
)
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template, populate_random, ragged


@pytest.fixture
def case():
    tpl = make_grid_template(5, 6)
    coll = build_collection(tpl, 7, populate_random(21))
    pg = partition_graph(tpl, 3, HashPartitioner(seed=2))
    return tpl, coll, pg


class TestAggregation:
    def test_counts_match_reference(self, case):
        tpl, coll, pg = case
        for tag in (0, 1, 3):
            comp = HashtagAggregationComputation.for_partitioned_graph(pg, tag)
            res = run_application(comp, pg, coll)
            (_sg, summary), = res.merge_outputs
            assert isinstance(summary, HashtagSummary)
            want = hashtag_count_series(coll, tag)
            assert np.array_equal(summary.counts, want)
            assert summary.total == want.sum()

    def test_rate_of_change(self, case):
        tpl, coll, pg = case
        comp = HashtagAggregationComputation.for_partitioned_graph(pg, 0)
        res = run_application(comp, pg, coll)
        (_sg, summary), = res.merge_outputs
        assert np.array_equal(summary.rate_of_change, np.diff(summary.counts))
        assert summary.peak_timestep == int(np.argmax(summary.counts))

    def test_master_is_largest_subgraph_in_partition_0(self, case):
        tpl, coll, pg = case
        master = largest_subgraph_in_partition(pg, 0)
        sizes = {sg.subgraph_id: sg.num_vertices for sg in pg.partitions[0].subgraphs}
        assert sizes[master] == max(sizes.values())
        comp = HashtagAggregationComputation.for_partitioned_graph(pg, 0)
        res = run_application(comp, pg, coll)
        assert res.merge_outputs[0][0] == master

    def test_multiplicity_counted(self):
        """A hashtag appearing twice in one vertex's tweets counts twice."""
        tpl = make_grid_template(2, 2)

        def pop(inst, t):
            inst.vertex_values.set_column("tweets", ragged([[5, 5], [5], [], []]))

        coll = build_collection(tpl, 2, pop)
        pg = partition_graph(tpl, 2, HashPartitioner())
        comp = HashtagAggregationComputation.for_partitioned_graph(pg, 5)
        res = run_application(comp, pg, coll)
        (_sg, summary), = res.merge_outputs
        assert np.array_equal(summary.counts, [3, 3])

    def test_absent_hashtag_all_zero(self, case):
        tpl, coll, pg = case
        comp = HashtagAggregationComputation.for_partitioned_graph(pg, 99)  # no vertex has it
        res = run_application(comp, pg, coll)
        (_sg, summary), = res.merge_outputs
        assert summary.total == 0
        assert np.all(summary.counts == 0)

    def test_with_sir_and_background_noise(self):
        """Tracked meme counts stay correct with ambient hashtag chatter."""
        tpl = smallworld_network(200, seed=5)
        sir = SIRTweetPopulator(
            tpl, [0], hit_probability=0.2, num_timesteps=8, seed=5
        )
        noise = BackgroundHashtagPopulator([100, 101], rate=0.5, seed=6)
        coll = build_collection(tpl, 8, CompositePopulator([sir, noise]), lazy=True)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
        comp = HashtagAggregationComputation.for_partitioned_graph(pg, 0)
        res = run_application(comp, pg, coll)
        (_sg, summary), = res.merge_outputs
        want = hashtag_count_series(coll, 0)
        assert np.array_equal(summary.counts, want)

    def test_empty_partition0_raises(self):
        from repro.graph import GraphTemplate
        from repro.partition import decompose

        tpl = GraphTemplate(2, [0], [1])
        pg = decompose(tpl, np.array([1, 1]), 2)  # partition 0 empty
        with pytest.raises(ValueError, match="no subgraphs"):
            largest_subgraph_in_partition(pg, 0)
