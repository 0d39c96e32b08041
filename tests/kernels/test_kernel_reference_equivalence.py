"""Kernel plane ↔ independent oracle equivalence, asserted bit-for-bit.

Every algorithm family runs on the kernel plane — the only implementation —
and is checked two ways:

* against its single-process oracle in ``algorithms/reference.py`` (which
  shares no code with the kernels), over a hypothesis sweep of random
  graphs, partition counts and directedness;
* against a pinned digest of its canonical outputs / merge outputs / final
  subgraph states on one fixed-seed case, on the serial and process
  executors.  The digests were captured at the last commit that still
  carried a scalar twin of every kernel, where both paths produced them
  byte-for-byte; they freeze that equivalence as data.

PR 17 re-pinned the TDSP, reachability and meme digests: those three keep
different *state* now (a run-long ``label`` reset per band, ``roots`` /
``touched`` / ``newly`` index arrays and counters in place of per-timestep
n-sized arrays, ``slot_src`` gone from reachability/meme, the write-only
``tdsp`` / ``reached_at`` / ``colored_at`` arrays gone), and the digest
hashes ``res.states``.  Their ``digest((outputs, merge_outputs))`` was
computed at the parent — where the full digest still equalled the
scalar-twin pin — and at the change, and is equal; it is pinned beside the
new full digest (``pinned_outputs``) so the original anchor is kept.

The TDSP and reachability digests were re-pinned once more, for the same
reason, when their states gained the open mask over the cut rows (``open``,
``has_open``, ``shipped``).  Their outputs digests did not move.

The TDSP, SSSP and PageRank digests were re-pinned when ``slot_src`` left
their states for the subgraph's lazy ``Subgraph.slot_src``; SSSP and
PageRank gained a ``pinned_outputs`` then, computed at the parent and equal
at the change.
"""

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    CommunityEvolutionComputation,
    HashtagAggregationComputation,
    MemeTrackingComputation,
    PageRankComputation,
    SSSPComputation,
    TDSPComputation,
    TemporalReachabilityComputation,
    colored_timesteps_from_result,
    pagerank_from_result,
    reached_timesteps_from_result,
    sssp_labels_from_result,
    tdsp_labels_from_result,
)
from repro.algorithms import reference as ref
from repro.core import EngineConfig, run_application
from repro.generators import PeriodicExistencePopulator, paper_datasets
from repro.graph import build_collection
from repro.partition import HashPartitioner, MetisLikePartitioner, partition_graph
from repro.storage import GoFS
from tests.algorithms.test_reachability_evolution import evolving_case, evolving_template
from tests.conftest import make_grid_template, make_random_template, populate_random
from tests.core.test_executor_equivalence import _canonical


def build_case(seed=0, n=40, m=90, T=2, k=3, directed=False):
    rng = np.random.default_rng(seed)
    tpl = make_random_template(n, m, rng, directed=directed)
    coll = build_collection(tpl, T, populate_random(seed), delta=6.0)
    pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
    return tpl, coll, pg


def grid_case(seed):
    tpl = make_grid_template(5, 6)
    coll = build_collection(tpl, 4, populate_random(seed), delta=6.0)
    pg = partition_graph(tpl, 3, HashPartitioner(seed=seed))
    return tpl, coll, pg


def digest(obj) -> str:
    """SHA-256 of :func:`_canonical` ``obj``, stable across processes and
    numpy scalar reprs (array leaves hash their raw bytes)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, tuple):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        elif isinstance(x, bytes):
            h.update(len(x).to_bytes(8, "little") + x)
        else:
            if isinstance(x, np.generic):
                x = x.item()
            h.update(repr(x).encode() + b";")

    feed(_canonical(obj))
    return h.hexdigest()


def result_digest(res) -> str:
    return digest((res.outputs, res.merge_outputs, res.states))


def outputs_digest(res) -> str:
    return digest((res.outputs, res.merge_outputs))


def run(comp, pg, coll, executor="serial", **run_kwargs):
    return run_application(
        comp, pg, coll, config=EngineConfig(executor=executor), **run_kwargs
    )


# -- oracle checks, one per family ------------------------------------------------------


def check_sssp(res, tpl, coll):
    got = sssp_labels_from_result(res, tpl.num_vertices)
    want = ref.single_source_shortest_paths(tpl, 0, coll.instance(0).edge_column("latency"))
    # Same least fixpoint reached through the same final float additions.
    assert got.tobytes() == want.tobytes()


def check_tdsp(res, tpl, coll):
    got = tdsp_labels_from_result(res, tpl.num_vertices)
    assert got.tobytes() == ref.time_expanded_dijkstra(coll, 0).tobytes()


def check_reach(res, tpl, coll):
    assert reached_timesteps_from_result(res) == ref.temporal_reachability(coll, 0)


def check_meme(res, tpl, coll):
    assert colored_timesteps_from_result(res) == ref.temporal_meme_bfs(coll, 1)


def check_hashtag(res, tpl, coll):
    [summary] = [rec[-1] for rec in res.merge_outputs]
    assert np.array_equal(summary.counts, ref.hashtag_count_series(coll, 2))


def check_pagerank(res, tpl, coll):
    got = pagerank_from_result(res, tpl.num_vertices)
    np.testing.assert_allclose(got, ref.pagerank(tpl, iterations=15), atol=1e-12)


def check_evolution(res, tpl, coll):
    [summary] = [rec[-1] for rec in res.merge_outputs]
    for t in range(len(coll)):
        assert np.array_equal(summary.labels[t], ref.instance_communities(coll, t))


@dataclass(frozen=True)
class Family:
    case: Callable  #: seed/kwargs -> (template, collection, partitioned graph)
    make: Callable  #: (template, partitioned graph) -> computation
    check: Callable  #: (result, template, collection) -> None, asserts the oracle
    run_kwargs: dict
    pinned_seed: int
    pinned: str  #: digest of (outputs, merge outputs, states) at ``pinned_seed``
    #: digest of (outputs, merge outputs) alone, unchanged since the scalar
    #: twins — kept for the families whose ``pinned`` PR 17 had to move.
    pinned_outputs: str | None = None


ONE_INSTANCE = {"timestep_range": (0, 1)}

FAMILIES = {
    "sssp": Family(
        build_case, lambda tpl, pg: SSSPComputation(0, "latency"), check_sssp,
        ONE_INSTANCE, 13,
        "6c1f15f3a03878a7a3af3b65bb4bc794e3c9db01fe215ebbe3472c386ecf8e24",
        "73dbf645afbd001a71855f8a90ec62b14ffd302e234e21aaf1292574342d3d3b",
    ),
    "tdsp": Family(
        lambda seed, **kw: build_case(seed, T=4, **kw),
        lambda tpl, pg: TDSPComputation(0), check_tdsp,
        {}, 7,
        "2089fbb815fa733b98a8625e0473f9c5836bba7344903b073674b388764f87c5",
        "b76b005cb9597bc48b81a2ae1cf58cd531a3587f6f33815f3243cb62caf7add0",
    ),
    "reach": Family(
        evolving_case, lambda tpl, pg: TemporalReachabilityComputation(0), check_reach,
        {}, 5,
        "e797e7938d83e9fa40238f875ad48cda7d197bbbe309bb2019a4cecbd40a4d6d",
        "58e97827ccce1d48c918bf6ad4afd54e33da893bc9134613a80e7c541aec5756",
    ),
    "meme": Family(
        grid_case, lambda tpl, pg: MemeTrackingComputation(1), check_meme,
        {}, 23,
        "305794940304d574cf78d7a34f7822fcb9f640e833eaf20970b0da6aa227a324",
        "4e3c0f04c0c3b575131024412bdfbda53787a361a51cabb9ea298dc1ceedf22d",
    ),
    "hash": Family(
        grid_case,
        lambda tpl, pg: HashtagAggregationComputation.for_partitioned_graph(pg, 2),
        check_hashtag,
        {}, 23,
        "178ca57a92fffc33b4d6e0c2ae828cbb20eadef8b83e78fd2c249288900fc0e5",
    ),
    "pagerank": Family(
        build_case, lambda tpl, pg: PageRankComputation(15), check_pagerank,
        ONE_INSTANCE, 13,
        "44535714cdfad44e28c76069be4bcb6ac984d3b200435da04a0fd1a4604f8b07",
        "9b88db8bf382d96d375acbeb9abe42de18b620b0838067f90aa51fe5b6751002",
    ),
    "evolution": Family(
        lambda seed, **kw: evolving_case(seed, T=5, **kw),
        lambda tpl, pg: CommunityEvolutionComputation(tpl.num_vertices),
        check_evolution,
        {}, 5,
        "444ab016e9c2ef3aef483cd2b8639416f301097c02b11ed07561893e62abf60b",
    ),
}

#: TDSP with paper-faithful re-rooting (fig5a/6/7's work profile), same case;
#: re-pinned with the family's digest each time (its outputs are the
#: family's).
TDSP_UNPRUNED_PINNED = "00103db80fcd55ebf23a00eeb30f545cec38fe28cca02366096fa981bfa22862"
#: PageRank's oracle check is a tolerance, so the directed case is pinned too
#: (re-pinned with the family), and so are its outputs alone.
PAGERANK_DIRECTED_PINNED = "bfde2920cc01c22d8b992d9b55b153d97dfb9cdab2535cadf0784db600aa8d2c"
PAGERANK_DIRECTED_OUTPUTS_PINNED = (
    "b8dd0590371adc25f7857c8caefc31dd0f3d63b02cd69b1d320dedfd7b9b7cc0"
)


def run_family(name, executor="serial", *, seed=None, **case_kwargs):
    """Run one family's case; return ``(result, digest)`` after the oracle check."""
    fam = FAMILIES[name]
    tpl, coll, pg = fam.case(fam.pinned_seed if seed is None else seed, **case_kwargs)
    res = run(fam.make(tpl, pg), pg, coll, executor, **fam.run_kwargs)
    fam.check(res, tpl, coll)
    return res, result_digest(res)


class TestSSSP:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4), directed=st.booleans())
    def test_bit_identical_and_matches_reference(self, seed, k, directed):
        run_family("sssp", seed=seed, k=k, directed=directed)


class TestTDSP:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4))
    def test_bit_identical_and_matches_reference(self, seed, k):
        run_family("tdsp", seed=seed, k=k)

    def test_root_pruning_off_still_bit_identical(self):
        """Re-pinned with the family (the state keys changed, see the module
        docstring); what it emits is still what the pruned run emits, and it
        sends what Algorithm 2 sends: the counts are the ones recorded before
        the pruned run began to close delivered cut rows, which it does not."""
        fam = FAMILIES["tdsp"]
        tpl, coll, pg = fam.case(fam.pinned_seed)
        res = run(TDSPComputation(0, root_pruning=False), pg, coll)
        check_tdsp(res, tpl, coll)
        assert outputs_digest(res) == fam.pinned_outputs
        assert result_digest(res) == TDSP_UNPRUNED_PINNED
        s = res.metrics.summary()
        assert (s["supersteps"], s["remote_messages"], s["frames"]) == (19, 43, 33)
        pruned = run(TDSPComputation(0), pg, coll).metrics.summary()
        assert (pruned["supersteps"], pruned["remote_messages"], pruned["frames"]) == (19, 37, 31)


class TestReachability:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), directed=st.booleans())
    def test_bit_identical_and_matches_reference(self, seed, directed):
        run_family("reach", seed=seed, directed=directed)


class TestMeme:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_bit_identical_and_matches_reference(self, seed):
        run_family("meme", seed=seed)


class TestHashtag:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_bit_identical_and_matches_reference(self, seed):
        run_family("hash", seed=seed)


class TestPageRank:
    @pytest.mark.parametrize("directed", [False, True])
    def test_bit_identical(self, directed):
        res, got = run_family("pagerank", directed=directed)
        fam = FAMILIES["pagerank"]
        assert got == (PAGERANK_DIRECTED_PINNED if directed else fam.pinned)
        assert outputs_digest(res) == (
            PAGERANK_DIRECTED_OUTPUTS_PINNED if directed else fam.pinned_outputs
        )


class TestEvolution:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_bit_identical(self, seed):
        run_family("evolution", seed=seed)


class TestExecutorSweep:
    """Every family reproduces its pinned digest on every backend.

    ``tdsp-*``, ``reach-*``, ``meme-*``, ``sssp-*`` and ``pagerank-*`` were
    re-pinned because their state keys changed (``tdsp-*`` three times,
    ``reach-*`` twice); their outputs-only digest did not move and is
    asserted too (module docstring)."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_kernel_on_executor_matches_serial_digest(self, name, executor):
        res, got = run_family(name, executor)
        assert FAMILIES[name].pinned_outputs in (None, outputs_digest(res))
        assert got == FAMILIES[name].pinned


# -- the paper's graphs over GoFS views, pinned --------------------------------------
#
# TDSP, reachability and MEME on CARN / WIKI at scale 2000, k=3, 10 instances,
# read through GoFS partition views (the row plans, the per-subgraph ``take``s
# and the kernel round loops all under them).  Recorded at 1d595cb, before the
# round loops moved to array methods and ``_plan`` to a direct-address index:
# both rewrites claim the same operations in the same order, so outputs, merge
# outputs and final states hash to the same values.  Re-recorded once when the
# partitioner began to return one piece per partition: outputs and states are
# keyed by subgraph, and the subgraphs moved.  The TDSP and reachability
# entries were re-recorded again when their states gained the open mask over
# the cut rows, and the TDSP entries once more when ``slot_src`` left their
# states; what they emit did not move, and ``GOFS_OUTPUTS_PINNED`` (recorded
# before those changes) holds every case to it.

GOFS_PINNED = {
    ("tdsp", "CARN"): "fd990ecd308be2f31fa15ac7426887872ddfe3eefdfc0df35103012eb99fdd2e",
    ("reach", "CARN"): "964b615a4adde939cf44d8dea6f71d52897a1e2cada9f3b7a8ee6ddd12fcd804",
    ("meme", "CARN"): "de14c105590197565998389d5fa2ee91e10527d0f98f557e5624460512cd7527",
    ("tdsp", "WIKI"): "6b3fe5393d7226c33398f567326e0a43e3c0ccab27fa74fabcc93d8163fff162",
    ("reach", "WIKI"): "d16ecdfa9a5626682551ac3959fbbcef16366b333dd83a9751db03ff09524680",
    ("meme", "WIKI"): "858b99fabc2c7775b25de6e598a522367081ab72acc3f1c9c8d2c87527f5a0ba",
}

#: ``outputs_digest`` of the cases above, recorded before the TDSP and
#: reachability states gained the open mask.
GOFS_OUTPUTS_PINNED = {
    ("tdsp", "CARN"): "d3f1c510fe7eb25012ba5a02c69e1cb577850cad68e56e87dd3bf3774a0ee1a2",
    ("reach", "CARN"): "31346251c11b04c2220b6381ffe7d6ec586e9b4867ec1f136d00aef4bacf379b",
    ("meme", "CARN"): "fac17c8b7ddf07408da4d51482a310e3199dc530169008782c271a8295ae0d5e",
    ("tdsp", "WIKI"): "44cec357db68ca7ad0cbf84ad9702971efe2a4b846c55f7c4297901bfbf0a1b8",
    ("reach", "WIKI"): "517c74d6ab377f7ba63900990dd03db11a121f082aac7ac37801a59a0376cc7d",
    ("meme", "WIKI"): "d25e254351ead226f30f894ce318fe24eb1b5326e92fd6a821d221d1c946e01f",
}


def paper_case(algorithm, graph, scale=2000, instances=10, seed=0):
    """What ``tibsp run <algorithm> --graph <graph> --partitions 3`` builds."""
    data = paper_datasets(scale, instances, seed=seed)[graph]
    tpl = data["template"]
    if algorithm == "reach":
        tpl = evolving_template(tpl.num_vertices, tpl.edge_src, tpl.edge_dst, tpl.directed)
        coll = build_collection(tpl, instances, PeriodicExistencePopulator(tpl, seed=seed), lazy=True)
    else:
        coll = data["road" if algorithm == "tdsp" else "tweets"]
    return tpl, coll, partition_graph(tpl, 3, MetisLikePartitioner(seed=seed))


class TestPinnedOverGoFS:
    @pytest.mark.parametrize("algorithm,graph", list(GOFS_PINNED))
    def test_results_hash_to_the_values_recorded_before_the_rewrite(
        self, algorithm, graph, tmp_path
    ):
        tpl, coll, pg = paper_case(algorithm, graph)
        comp = {
            "tdsp": lambda: TDSPComputation(0, halt_when_stalled=True),
            "reach": lambda: TemporalReachabilityComputation(0),
            "meme": lambda: MemeTrackingComputation(0),
        }[algorithm]()
        GoFS.write_collection(tmp_path, pg, coll)
        res = run_application(comp, pg, coll, sources=GoFS.partition_views(tmp_path))
        assert len(res.outputs) > 3  # the wave left the source's subgraph
        assert result_digest(res) == GOFS_PINNED[algorithm, graph]
        assert outputs_digest(res) == GOFS_OUTPUTS_PINNED[algorithm, graph]
