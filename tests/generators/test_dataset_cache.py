"""Dataset cache: content keys, atomicity, cold/warm identity."""

import pickle

import numpy as np
import pytest

from repro.generators import DatasetCache, content_key, paper_datasets
from repro.generators.cache import INGEST_CODE_VERSION
from repro.partition import partition_graph
from repro.partition.metis_like import MetisLikePartitioner


class TestContentKey:
    def test_stable(self):
        params = {"scale": 100, "seed": 0, "p": 0.5}
        assert content_key("datasets", params) == content_key("datasets", params)

    def test_param_order_irrelevant(self):
        assert content_key("x", {"a": 1, "b": 2}) == content_key("x", {"b": 2, "a": 1})

    def test_every_param_matters(self):
        base = {"scale": 100, "seed": 0}
        key = content_key("datasets", base)
        assert content_key("datasets", {**base, "seed": 1}) != key
        assert content_key("datasets", {**base, "scale": 101}) != key
        assert content_key("other", base) != key

    def test_code_version_in_key(self, monkeypatch):
        params = {"scale": 100}
        key = content_key("datasets", params)
        monkeypatch.setattr("repro.generators.cache.INGEST_CODE_VERSION", INGEST_CODE_VERSION + 1)
        assert content_key("datasets", params) != key

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            content_key("datasets", {"fn": lambda: None})


class TestDatasetCache:
    def test_miss_then_hit(self, tmp_path):
        cache = DatasetCache(tmp_path)
        assert cache.load("thing", {"a": 1}) is None
        cache.store("thing", {"a": 1}, {"value": 42})
        assert cache.load("thing", {"a": 1}) == {"value": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        cache = DatasetCache(tmp_path)
        cache.store("thing", {"a": 1}, np.arange(10))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".pkl"]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DatasetCache(tmp_path)
        path = cache.store("thing", {"a": 1}, [1, 2, 3])
        path.write_bytes(b"not a pickle")
        assert cache.load("thing", {"a": 1}) is None

    def test_get_or_build_builds_once(self, tmp_path):
        cache = DatasetCache(tmp_path)
        calls = []
        value = cache.get_or_build("k", {"x": 1}, lambda: calls.append(1) or "built")
        again = cache.get_or_build("k", {"x": 1}, lambda: calls.append(1) or "built")
        assert value == again == "built"
        assert len(calls) == 1


class TestColdWarmIdentity:
    SCALE = 2_000

    def test_datasets_cold_equals_warm(self, tmp_path):
        cache = DatasetCache(tmp_path)
        cold = paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        warm = paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        for name in ("CARN", "WIKI"):
            assert warm[name]["template"].equals(cold[name]["template"])
            for kind in ("road", "tweets"):
                ic, iw = cold[name][kind].instance(2), warm[name][kind].instance(2)
                for col in ic.vertex_values.schema.names:
                    ic.vertex_values.column(col)
                assert ic.vertex_values.equals(iw.vertex_values)

    def test_warm_equals_uncached(self, tmp_path):
        cache = DatasetCache(tmp_path)
        paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        warm = paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        fresh = paper_datasets(self.SCALE, 5, seed=3)
        assert warm["WIKI"]["template"].equals(fresh["WIKI"]["template"])

    def test_partition_cold_equals_warm(self, tmp_path):
        cache = DatasetCache(tmp_path)
        data = paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        tpl = data["CARN"]["template"]
        cold = partition_graph(tpl, 4, MetisLikePartitioner(seed=3), cache=cache)
        warm = partition_graph(tpl, 4, MetisLikePartitioner(seed=3), cache=cache)
        assert np.array_equal(cold.vertex_partition, warm.vertex_partition)
        assert np.array_equal(cold.vertex_subgraph, warm.vertex_subgraph)

    def test_partition_cached_by_version_3_is_a_miss(self, tmp_path, monkeypatch):
        """A partition entry is keyed by the partitioner's class and scalar
        config, not its algorithm: only the version keeps a warm cache from
        serving the old refinement's partitions."""
        assert INGEST_CODE_VERSION == 5
        cache = DatasetCache(tmp_path)
        tpl = paper_datasets(self.SCALE, 5, seed=3)["CARN"]["template"]
        monkeypatch.setattr("repro.generators.cache.INGEST_CODE_VERSION", 3)
        partition_graph(tpl, 4, MetisLikePartitioner(seed=3), cache=cache)
        monkeypatch.undo()
        misses = cache.misses
        partition_graph(tpl, 4, MetisLikePartitioner(seed=3), cache=cache)
        assert cache.misses == misses + 1 and cache.hits == 0

    def test_datasets_cached_by_version_4_are_a_miss(self, tmp_path, monkeypatch):
        """Version 4 pickled tweet collections whose cells were tuples in an
        object column; version 5 never reads them."""
        cache = DatasetCache(tmp_path)
        monkeypatch.setattr("repro.generators.cache.INGEST_CODE_VERSION", 4)
        paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        monkeypatch.undo()
        misses = cache.misses
        paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        assert cache.misses == misses + 1 and cache.hits == 0

    def test_partitioner_config_in_key(self, tmp_path):
        cache = DatasetCache(tmp_path)
        data = paper_datasets(self.SCALE, 5, seed=3, cache=cache)
        tpl = data["WIKI"]["template"]
        a = partition_graph(tpl, 4, MetisLikePartitioner(seed=3), cache=cache)
        b = partition_graph(tpl, 4, MetisLikePartitioner(seed=4), cache=cache)
        # Different partitioner seeds must not share a cache entry.
        assert cache.misses >= 3  # datasets + two partition builds
        assert not np.array_equal(a.vertex_partition, b.vertex_partition)
