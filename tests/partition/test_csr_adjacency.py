"""The partitioner's three-field CSR against the scipy constructions it
replaced (scipy is the oracle here; ``src/repro/partition`` imports none),
and its array matching against a scalar, per-vertex handshake."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.generators import road_network, smallworld_network
from repro.graph import GraphTemplate
from repro.partition.metis_like import (
    CSR,
    _coarse_ids,
    _symmetric_weighted_adjacency,
    coarsen_graph,
    heavy_edge_matching,
)
from tests.conftest import make_random_template


def scipy_adjacency(template: GraphTemplate) -> sp.csr_matrix:
    """The construction the partitioner used while it imported scipy."""
    n = template.num_vertices
    src, dst = template.undirected_edge_view()
    keep = src != dst
    src, dst = src[keep], dst[keep]
    adj = sp.coo_matrix(
        (np.ones(2 * len(src)), (np.concatenate([src, dst]), np.concatenate([dst, src]))),
        shape=(n, n),
    ).tocsr()
    adj.sum_duplicates()
    return adj


def assert_same_csr(got, want):
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.data.dtype == np.float64


class TestCsr:
    def test_adjacency_equals_scipy_with_multi_edges_and_self_loops(self):
        # 0-1 three times (once reversed), 1-2 and 3-4 both ways, loops on
        # 3 and 1, vertex 5 isolated.
        src = [0, 1, 0, 2, 3, 3, 1, 4, 2, 1]
        dst = [1, 2, 1, 1, 3, 4, 1, 3, 0, 0]
        for directed in (False, True):
            tpl = GraphTemplate(6, src, dst, directed=directed)
            adj = _symmetric_weighted_adjacency(tpl)
            assert isinstance(adj, CSR)
            assert_same_csr(adj, scipy_adjacency(tpl))
            assert adj.data[adj.indptr[0]] == 3.0 and adj.indptr[6] == adj.indptr[5]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjacency_equals_scipy_on_random_templates(self, seed):
        rng = np.random.default_rng(seed)
        tpl = make_random_template(60, 200, rng, directed=bool(seed % 2))
        assert_same_csr(_symmetric_weighted_adjacency(tpl), scipy_adjacency(tpl))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matching_and_coarsening_take_a_tuple_or_a_scipy_matrix(self, seed):
        tpl = make_random_template(80, 240, np.random.default_rng(seed))
        ours, theirs = _symmetric_weighted_adjacency(tpl), scipy_adjacency(tpl)
        maps = [heavy_edge_matching(adj, np.random.default_rng(seed)) for adj in (ours, theirs)]
        assert np.array_equal(*maps)
        assert maps[0].max() + 1 < tpl.num_vertices  # something was matched
        vw = np.arange(1.0, tpl.num_vertices + 1)
        (c_ours, w_ours), (c_theirs, w_theirs) = (
            coarsen_graph(adj, vw, maps[0]) for adj in (ours, theirs)
        )
        assert_same_csr(c_ours, c_theirs)
        assert np.array_equal(w_ours, w_theirs)
        # ... and against the sparse-matmul contraction, diagonal dropped.
        nc = int(maps[0].max()) + 1
        proj = sp.csr_matrix(
            (np.ones(tpl.num_vertices), (np.arange(tpl.num_vertices), maps[0])),
            shape=(tpl.num_vertices, nc),
        )
        want = (proj.T @ theirs @ proj).tolil()
        want.setdiag(0)
        want = want.tocsr()
        want.eliminate_zeros()
        want.sort_indices()
        assert_same_csr(c_ours, want)


def scalar_handshake_matching(adj, seed: int) -> np.ndarray:
    """One vertex at a time: each round every unmatched vertex with an
    unmatched neighbour proposes to the one with the largest ``(weight,
    priority)``, and mutual proposals commit."""
    n = len(adj.indptr) - 1
    priority = np.random.default_rng(seed).permutation(n)
    match = [-1] * n
    while True:
        proposal = {}
        for u in range(n):
            if match[u] != -1:
                continue
            best = None
            for slot in range(adj.indptr[u], adj.indptr[u + 1]):
                v = int(adj.indices[slot])
                if match[v] == -1 and (
                    best is None or (adj.data[slot], priority[v]) > best[0]
                ):
                    best = ((adj.data[slot], priority[v]), v)
            if best is not None:
                proposal[u] = best[1]
        if not proposal:
            break
        for u, v in proposal.items():
            if u < v and proposal.get(v) == u:
                match[u], match[v] = v, u
    return _coarse_ids(np.array([v if m == -1 else m for v, m in enumerate(match)]))


@st.composite
def multigraphs(draw) -> GraphTemplate:
    """Stars, paths, grids or random edge lists, each edge repeated 1-5
    times (a weight of 1-5 once collapsed), plus isolated vertices, under a
    random labelling."""
    shape = draw(st.sampled_from(["star", "path", "grid", "random"]))
    size = draw(st.integers(1, 40))
    if shape == "star":
        edges = [(0, v) for v in range(1, size)]
    elif shape == "path":
        edges = [(v, v + 1) for v in range(size - 1)]
    elif shape == "grid":
        w = draw(st.integers(1, 7))
        size = w * max(1, size // w)
        edges = [(v, v + 1) for v in range(size) if (v + 1) % w] + [
            (v, v + w) for v in range(size - w)
        ]
    else:
        vertex = st.integers(0, size - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * size))
    n = size + draw(st.integers(0, 5))
    label = draw(st.permutations(range(n)))
    times = draw(st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges)))
    src = [label[u] for (u, _), m in zip(edges, times) for _ in range(m)]
    dst = [label[v] for (_, v), m in zip(edges, times) for _ in range(m)]
    return GraphTemplate(n, src, dst)


class TestMatchingOracle:
    @settings(max_examples=60, deadline=None)
    @given(tpl=multigraphs(), seed=st.integers(0, 2**16))
    def test_matching_equals_the_scalar_handshake(self, tpl, seed):
        adj = _symmetric_weighted_adjacency(tpl)
        got = heavy_edge_matching(adj, np.random.default_rng(seed))
        assert np.array_equal(got, scalar_handshake_matching(adj, seed))

    @pytest.mark.parametrize("graph", ["CARN", "WIKI"])
    def test_matching_equals_the_scalar_handshake_on_every_level(self, graph):
        generate = road_network if graph == "CARN" else smallworld_network
        adj = _symmetric_weighted_adjacency(generate(2000, seed=1))
        vw = np.ones(len(adj.indptr) - 1)
        levels = 0
        while len(vw) > 200:
            coarse_map = heavy_edge_matching(adj, np.random.default_rng(levels))
            assert np.array_equal(coarse_map, scalar_handshake_matching(adj, levels))
            levels += 1
            if coarse_map.max() + 1 > 0.95 * len(vw):
                break
            adj, vw = coarsen_graph(adj, vw, coarse_map)
        assert levels >= 2
        assert adj.data.max() > 1  # contraction summed weights the oracle then saw

    def test_non_integral_weight_is_refused(self):
        adj = CSR(
            np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]), np.array([1.0, 1.0, 0.5, 0.5])
        )
        with pytest.raises(ValueError, match="integral"):
            heavy_edge_matching(adj, np.random.default_rng(0))


def test_a_matching_round_is_one_reduction():
    """The matching folds weight and tie-break into one int64 key per slot,
    so a round is one ``maximum.reduceat`` and no ``np.where``."""
    from tests.test_structure import ROOT

    lines = (ROOT / "src/repro/partition/metis_like.py").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("def heavy_edge_matching"))
    last = next(i for i, line in enumerate(lines) if line.startswith("def coarsen_graph"))
    matching = lines[first : last + 1]
    assert sum("reduceat(" in line for line in matching) == 1
    assert [line for line in matching if "np.where" in line] == []
