"""The partitioner's three-field CSR against the scipy constructions it
replaced (scipy is the oracle here; ``src/repro/partition`` imports none)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import GraphTemplate
from repro.partition.metis_like import (
    CSR,
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
