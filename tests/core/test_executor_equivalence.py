"""Byte-identical results across the serial, process and socket executors
(the socket executor on the session's ``tibsp worker`` agents).

The batched message plane changes delivery routes (host-local short-circuit,
per-partition frames, combiners) but must not change *what* applications
compute: for each algorithm family — and each design pattern: TDSP / MEME
are sequentially dependent, TopN / per-instance PageRank independent, HASH
eventually dependent — the executor backends have to agree bit-for-bit on
outputs, merge outputs, and final subgraph states.
"""

import dataclasses

import numpy as np
import pytest

from repro._value import Value
from repro.algorithms.hashtag import HashtagAggregationComputation
from repro.algorithms.meme import MemeTrackingComputation
from repro.algorithms.pagerank import PageRankComputation
from repro.algorithms.tdsp import TDSPComputation
from repro.algorithms.top_n import TopNComputation
from repro.core import EngineConfig, run_application
from repro.generators import UniformLatencyPopulator
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CollectionInstanceSource
from repro.storage import GoFS
from tests.conftest import hosts_for, make_grid_template, populate_random

PARTITIONS = 3


@pytest.fixture(scope="module")
def case():
    tpl = make_grid_template(5, 6)
    coll = build_collection(tpl, 4, populate_random(23), delta=6.0)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=3))
    return tpl, coll, pg


def _computation(name, pg):
    if name == "tdsp":
        return TDSPComputation(0)
    if name == "meme":
        return MemeTrackingComputation(1)
    if name == "topn":
        return TopNComputation(3, "traffic")
    if name == "pagerank":
        return PageRankComputation(8)
    return HashtagAggregationComputation.for_partitioned_graph(pg, 2)


def _canonical(obj):
    """Structural canonical form with byte-exact leaves.

    Containers are walked recursively; ndarray leaves become
    ``(dtype str, shape, raw data bytes)`` so equality is bit-for-bit on the
    data while being insensitive to incidental *object-identity* sharing
    (in-process arrays share the interned dtype singleton, arrays rebuilt
    from out-of-band pickle buffers each carry their own dtype object — a
    whole-container pickle encodes that difference in its memo graph even
    when every value is identical).
    """
    if isinstance(obj, np.ndarray):
        return ("ndarray", str(obj.dtype), obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return ("dict", tuple(sorted((_canonical(k), _canonical(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(_canonical(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(_canonical(x) for x in obj)))
    if isinstance(obj, Value) or dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = obj.__slots__ if isinstance(obj, Value) else [f.name for f in dataclasses.fields(obj)]
        fields = tuple((name, _canonical(getattr(obj, name))) for name in names)
        return (type(obj).__qualname__, fields)
    if isinstance(obj, (np.generic, bool, int, float, complex, str, bytes, type(None))):
        return (type(obj).__qualname__, obj)
    raise TypeError(f"unhandled type in equivalence snapshot: {type(obj)!r}")


def _snapshot(name, pg, coll, executor, hosts=None, sources=None):
    res = run_application(
        _computation(name, pg),
        pg,
        coll,
        sources=sources,
        config=EngineConfig(executor=executor, hosts=hosts),
    )
    return (
        _canonical(res.outputs),
        _canonical(res.merge_outputs),
        _canonical(res.states),
    )


@pytest.mark.parametrize("name", ["tdsp", "meme", "hash", "topn", "pagerank"])
@pytest.mark.parametrize("executor", ["process", "socket"])
def test_executor_matches_serial(case, external_workers, name, executor):
    _tpl, coll, pg = case
    serial = _snapshot(name, pg, coll, "serial")
    other = _snapshot(name, pg, coll, executor, hosts_for(executor, external_workers, PARTITIONS))
    assert other == serial


@pytest.mark.parametrize("executor", ["process", "socket"])
def test_default_sources_match_serial(case, external_workers, executor):
    """Given no ``sources``, every agent receives its default source in its
    ``init`` message, a forked agent over its pipe and a ``hosts`` agent over
    TCP: the run returns what it does given the sources explicitly, and
    serial's results, byte for byte."""
    _tpl, coll, pg = case
    hosts = hosts_for(executor, external_workers, PARTITIONS)
    given = [CollectionInstanceSource(coll) for _ in range(PARTITIONS)]
    default = _snapshot("hash", pg, coll, executor, hosts)
    assert default == _snapshot("hash", pg, coll, executor, hosts, given)
    assert default == _snapshot("hash", pg, coll, "serial")


def test_a_lazy_collection_runs_on_agents():
    """A lazy collection is one picklable sequence: with default sources each
    forked agent regenerates its instances from the template and populator
    its ``init`` message carries, and the run returns serial's results, and
    those of the same collection built eagerly, byte for byte."""
    tpl = make_grid_template(5, 6)
    populate = UniformLatencyPopulator(0.1, 1.0, seed=1)
    lazy = build_collection(tpl, 3, populate, lazy=True)
    pg = partition_graph(tpl, PARTITIONS, HashPartitioner(seed=3))
    serial = _snapshot("tdsp", pg, build_collection(tpl, 3, populate), "serial")
    assert _snapshot("tdsp", pg, lazy, "serial") == serial
    assert _snapshot("tdsp", pg, lazy, "process") == serial


@pytest.fixture(scope="module")
def gofs_store(case, tmp_path_factory):
    """The same case written as a GoFS store with 2 packs (packing=2)."""
    _tpl, coll, pg = case
    root = tmp_path_factory.mktemp("gofs-equiv")
    GoFS.write_collection(root, pg, coll, packing=2, binning=2)
    return root


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_gofs_matches_serial_collection(case, gofs_store, executor):
    """GoFS-backed runs agree bit-for-bit with the in-memory collection
    baseline on every executor backend."""
    _tpl, coll, pg = case
    baseline = _snapshot("tdsp", pg, coll, "serial")
    sources = GoFS.partition_views(gofs_store)
    res = run_application(
        _computation("tdsp", pg),
        pg,
        coll,
        sources=sources,
        config=EngineConfig(executor=executor),
    )
    got = (
        _canonical(res.outputs),
        _canonical(res.merge_outputs),
        _canonical(res.states),
    )
    assert got == baseline
