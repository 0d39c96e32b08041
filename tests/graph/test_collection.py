"""Unit tests for TimeSeriesGraphCollection and its lazy instances."""

import pickle

import numpy as np
import pytest

from repro.generators import UniformLatencyPopulator
from repro.graph import (
    AttributeSchema,
    AttributeSpec,
    GraphInstance,
    GraphTemplate,
    LazyInstances,
    TimeSeriesGraphCollection,
    build_collection,
)


@pytest.fixture
def tpl():
    schema = AttributeSchema([AttributeSpec("latency", "float")])
    return GraphTemplate(3, [0, 1], [1, 2], edge_schema=schema)


def make_collection(tpl, count=4, t0=10.0, delta=2.0):
    instances = [GraphInstance(tpl, t0 + k * delta) for k in range(count)]
    return TimeSeriesGraphCollection(tpl, instances, t0=t0, delta=delta)


class TestProviders:
    """The instances a collection indexes: a list, or one lazy sequence."""

    def test_list_provider(self, tpl):
        coll = TimeSeriesGraphCollection(tpl, [GraphInstance(tpl, 0.0)])
        assert len(coll) == 1
        assert coll.instance(0).timestamp == 0.0
        with pytest.raises(IndexError):
            coll.instance(1)
        with pytest.raises(IndexError):
            coll.instance(-1)

    def test_callable_provider(self, tpl):
        calls = []
        coll = build_collection(tpl, 3, lambda inst, t: calls.append(t), lazy=True)
        assert len(coll) == 3
        assert coll.instance(2).timestamp == 2.0
        assert calls == [2]  # lazy: only what's accessed
        with pytest.raises(IndexError):
            coll.instance(3)

    def test_callable_provider_negative_count(self, tpl):
        with pytest.raises(ValueError):
            LazyInstances(tpl, -1, None)


class TestCollection:
    def test_len_and_access(self, tpl):
        coll = make_collection(tpl)
        assert len(coll) == 4
        assert coll.instance(0).timestamp == 10.0
        assert coll.instance(3).timestamp == 16.0

    def test_timestamp_mapping(self, tpl):
        coll = build_collection(tpl, 4, t0=10.0, delta=2.0, lazy=True)
        assert [coll.instance(k).timestamp for k in range(4)] == [10.0, 12.0, 14.0, 16.0]

    def test_iteration(self, tpl):
        coll = make_collection(tpl)
        stamps = [inst.timestamp for inst in coll]
        assert stamps == [10.0, 12.0, 14.0, 16.0]

    def test_delta_must_be_positive(self, tpl):
        with pytest.raises(ValueError):
            TimeSeriesGraphCollection(tpl, [], delta=0.0)

    def test_foreign_template_rejected(self, tpl):
        other = GraphTemplate(4, [0], [1])
        coll = TimeSeriesGraphCollection(tpl, [GraphInstance(other, 0.0)])
        with pytest.raises(ValueError, match="template"):
            coll.instance(0)

    def test_equal_template_by_value_accepted(self, tpl):
        clone = GraphTemplate(3, [0, 1], [1, 2], edge_schema=tpl.edge_schema)
        coll = TimeSeriesGraphCollection(tpl, [GraphInstance(clone, 0.0)], t0=0.0)
        assert coll.instance(0).timestamp == 0.0


class TestLazyInstances:
    def test_a_pickled_lazy_collection_unpickles_to_equal_instances(self, tpl):
        coll = build_collection(tpl, 3, UniformLatencyPopulator(0.1, 1.0, seed=1),
                                t0=4.0, delta=2.0, lazy=True)
        clone = pickle.loads(pickle.dumps(coll))
        assert (len(clone), clone.t0, clone.delta) == (3, 4.0, 2.0)
        for t in range(3):
            want, got = coll.instance(t), clone.instance(t)
            assert got.timestamp == want.timestamp
            assert np.array_equal(got.edge_column("latency"), want.edge_column("latency"))
