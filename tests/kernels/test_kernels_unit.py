"""Unit tests for the shared kernel plane (``repro.kernels``).

Each kernel is checked against a transparent scalar model on randomized
inputs — CSR gathers vs explicit loops, fixpoint relaxation vs Dijkstra,
component labeling vs scipy, aggregation vs per-cell Python counting.
"""

import heapq
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    components,
    contains,
    count,
    csr_components,
    expand_to_fixpoint,
    gather_ranges,
    group_min_pairs,
    group_unique_pairs,
    open_boundary,
    relax_to_fixpoint,
    slot_sources,
    sorted_unique,
)
from tests.conftest import ragged


def random_csr(rng, n, m):
    """A random directed CSR (indptr, indices) with ``m`` edges on ``n`` vertices."""
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return indptr, dst.astype(np.int64)


class TestCSRGather:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40), m=st.integers(0, 120))
    def test_gather_ranges_matches_loop(self, seed, n, m):
        rng = np.random.default_rng(seed)
        indptr, indices = random_csr(rng, n, m)
        verts = np.unique(rng.integers(0, n, size=rng.integers(0, n + 1)))
        slots, sources = gather_ranges(indptr, verts)
        want_slots, want_sources = [], []
        for v in verts:
            for slot in range(indptr[v], indptr[v + 1]):
                want_slots.append(slot)
                want_sources.append(v)
        assert slots.tolist() == want_slots
        assert sources.tolist() == want_sources

    def test_gather_empty(self):
        slots, sources = gather_ranges(
            np.zeros(5, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert slots.size == 0 and sources.size == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 30), m=st.integers(0, 90))
    def test_slot_sources(self, seed, n, m):
        indptr, _ = random_csr(np.random.default_rng(seed), n, m)
        got = slot_sources(indptr)
        want = np.repeat(np.arange(n), np.diff(indptr))
        assert np.array_equal(got, want)


class TestRelaxToFixpoint:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 30), m=st.integers(1, 120))
    def test_matches_dijkstra(self, seed, n, m):
        rng = np.random.default_rng(seed)
        indptr, indices = random_csr(rng, n, m)
        weights = rng.uniform(0.1, 5.0, size=len(indices))
        labels = np.full(n, np.inf)
        labels[0] = 0.0
        relax_to_fixpoint(indptr, indices, weights, labels, np.asarray([0]))

        dist = np.full(n, np.inf)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for slot in range(indptr[u], indptr[u + 1]):
                w = indices[slot]
                nd = d + weights[slot]
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, int(w)))
        # Same least fixpoint, same final float additions: bit-identical.
        assert labels.tobytes() == dist.tobytes()

    def test_bound_confines_relaxation(self):
        # 0 -1.0-> 1 -1.0-> 2 ; bound 1.5 stops before vertex 2.
        indptr = np.asarray([0, 1, 2, 2])
        indices = np.asarray([1, 2])
        weights = np.asarray([1.0, 1.0])
        labels = np.full(3, np.inf)
        labels[0] = 0.0
        improved = relax_to_fixpoint(
            indptr, indices, weights, labels, np.asarray([0]), bound=1.5
        )
        assert labels.tolist() == [0.0, 1.0, np.inf]
        assert improved.tolist() == [1]  # an index array, not an n-sized mask

    def test_blocked_vertices_never_improve(self):
        indptr = np.asarray([0, 1, 2, 2])
        indices = np.asarray([1, 2])
        weights = np.asarray([1.0, 1.0])
        labels = np.asarray([0.0, np.inf, np.inf])
        blocked = np.asarray([False, True, False])
        relax_to_fixpoint(
            indptr, indices, weights, labels, np.asarray([0]), blocked=blocked
        )
        assert np.isinf(labels[1]) and np.isinf(labels[2])


class TestExpandToFixpoint:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 30), m=st.integers(0, 120))
    def test_matches_bfs_reachable_set(self, seed, n, m):
        rng = np.random.default_rng(seed)
        indptr, indices = random_csr(rng, n, m)
        edge_ok = rng.random(len(indices)) < 0.7
        visited = np.zeros(n, dtype=bool)
        visited[0] = True
        expanded = np.zeros(n, dtype=bool)
        expand_to_fixpoint(
            indptr, indices, np.asarray([0]), visited, expanded, edge_ok=edge_ok
        )
        want = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for slot in range(indptr[u], indptr[u + 1]):
                w = int(indices[slot])
                if edge_ok[slot] and w not in want:
                    want.add(w)
                    stack.append(w)
        assert set(np.nonzero(visited)[0].tolist()) == want

    def test_vertex_gate(self):
        # 0 -> 1 -> 2, vertex 1 not ok: expansion stops at the gate.
        indptr = np.asarray([0, 1, 2, 2])
        indices = np.asarray([1, 2])
        visited = np.asarray([True, False, False])
        expanded = np.zeros(3, dtype=bool)
        vertex_ok = np.asarray([True, False, True])
        newly, expanded_now = expand_to_fixpoint(
            indptr, indices, np.asarray([0]), visited, expanded, vertex_ok=vertex_ok
        )
        assert visited.tolist() == [True, False, False]
        assert newly.size == 0
        assert expanded_now.tolist() == [0]


def scalar_relax(indptr, indices, weights, labels, seeds, bound, blocked):
    """Dijkstra from every seed at once, with the kernel's two gates: the
    scalar model of ``relax_to_fixpoint`` (same final float additions)."""
    dist = labels.copy()
    heap = [(float(dist[u]), int(u)) for u in seeds]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for slot in range(indptr[u], indptr[u + 1]):
            w, nd = int(indices[slot]), d + weights[slot]
            if nd < dist[w] and (bound is None or nd <= bound) and not (
                blocked is not None and blocked[w]
            ):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def scalar_expand(indptr, indices, seeds, visited, expanded, edge_ok, vertex_ok):
    """The gated BFS deque ``expand_to_fixpoint`` stands for."""
    visited, expanded = visited.copy(), expanded.copy()
    newly, expanded_now = set(), set()
    stack = [int(u) for u in seeds if not expanded[u]]
    while stack:
        u = stack.pop()
        if expanded[u]:
            continue
        expanded[u] = True
        expanded_now.add(u)
        for slot in range(indptr[u], indptr[u + 1]):
            w = int(indices[slot])
            if (edge_ok is None or edge_ok[slot]) and not visited[w] and (
                vertex_ok is None or vertex_ok[w]
            ):
                visited[w] = True
                newly.add(w)
                stack.append(w)
    return visited, expanded, newly, expanded_now


class TestRoundLoopCorners:
    """The cases the method-call / filter-by-position round loops branch on."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16), n=st.integers(2, 30), m=st.integers(0, 90),
        bounded=st.booleans(), with_blocked=st.booleans(), wide=st.booleans(),
    )
    def test_relax_matches_the_scalar_model(self, seed, n, m, bounded, with_blocked, wide):
        rng = np.random.default_rng(seed)
        indptr, indices = random_csr(rng, n, m)  # m < n leaves degree-0 vertices
        weights = rng.uniform(0.1, 5.0, size=len(indices))
        # Wide: every vertex seeded, so round one sweeps all the slots.
        seeds = np.arange(n) if wide else np.unique(rng.integers(0, n, size=rng.integers(1, n)))
        labels = np.full(n, np.inf)
        labels[seeds] = rng.uniform(0.0, 3.0, size=len(seeds))
        bound = float(rng.uniform(0.0, 8.0)) if bounded else None
        blocked = rng.random(n) < 0.4 if with_blocked else None
        want = scalar_relax(indptr, indices, weights, labels, seeds, bound, blocked)
        before = labels.copy()
        improved = relax_to_fixpoint(
            indptr, indices, weights, labels, seeds, bound=bound, blocked=blocked
        )
        assert labels.tobytes() == want.tobytes()
        assert set(improved.tolist()) == set(np.flatnonzero(labels != before).tolist())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16), n=st.integers(2, 30), m=st.integers(0, 90),
        bounded=st.booleans(), with_blocked=st.booleans(), wide=st.booleans(),
    )
    def test_relax_through_a_weight_index_is_bit_identical(
        self, seed, n, m, bounded, with_blocked, wide
    ):
        """``weights=values, weight_index=idx`` (what ``ctx.locate_edges``
        hands TDSP: a pack row and the slots' positions in it) relaxes
        exactly as ``weights=values[idx]`` — same improved array, same label
        bytes — in gathered rounds and in the whole-CSR sweep."""
        rng = np.random.default_rng(seed)
        indptr, indices = random_csr(rng, n, m)
        values = rng.uniform(0.1, 5.0, size=len(indices) + rng.integers(0, 20))
        idx = rng.integers(0, len(values), size=len(indices))  # repeats, any order
        seeds = np.arange(n) if wide else np.unique(rng.integers(0, n, size=rng.integers(1, n)))
        labels = np.full(n, np.inf)
        labels[seeds] = rng.uniform(0.0, 3.0, size=len(seeds))
        kw = {
            "bound": float(rng.uniform(0.0, 8.0)) if bounded else None,
            "blocked": rng.random(n) < 0.4 if with_blocked else None,
        }
        located = labels.copy()
        want = relax_to_fixpoint(indptr, indices, values[idx], labels, seeds, **kw)
        got = relax_to_fixpoint(indptr, indices, values, located, seeds, weight_index=idx, **kw)
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
        assert located.tobytes() == labels.tobytes()

    def test_the_benchmark_probes_positional_call_form_still_runs(self):
        """``benchmarks/e2e/layers.py`` calls the kernel with five positional
        arguments, and the benchmark is not edited with the kernel."""
        import importlib.util
        import pathlib
        import types

        from repro.graph import build_collection
        from repro.partition import partition_graph
        from tests.conftest import make_grid_template, populate_random

        path = pathlib.Path(__file__).parents[2] / "benchmarks" / "e2e" / "layers.py"
        spec = importlib.util.spec_from_file_location("e2e_layers", path)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        tpl = make_grid_template(4, 5)
        inputs = types.SimpleNamespace(
            pg=partition_graph(tpl, 2), collection=build_collection(tpl, 1, populate_random(3))
        )
        out = layers.probe_kernel(types.SimpleNamespace(algorithm="tdsp"), inputs)
        assert out["kernels.relax_ns_per_slot"] > 0

    def test_relax_leaves_when_every_candidate_is_filtered(self):
        # 0 -> {1, 2}: one candidate above the bound, the other blocked.
        indptr, indices = np.asarray([0, 2, 2, 2]), np.asarray([1, 2])
        labels = np.asarray([0.0, np.inf, np.inf])
        improved = relax_to_fixpoint(
            indptr, indices, np.asarray([9.0, 1.0]), labels, np.asarray([0]),
            bound=5.0, blocked=np.asarray([False, False, True]),
        )
        assert improved.size == 0 and labels.tolist() == [0.0, np.inf, np.inf]

    def test_relax_from_degree_zero_seeds_only(self):
        indptr, indices = np.asarray([0, 0, 0, 1]), np.asarray([0])
        labels = np.asarray([0.0, 0.0, np.inf])
        improved = relax_to_fixpoint(
            indptr, indices, np.asarray([1.0]), labels, np.asarray([0, 1])
        )
        assert improved.size == 0 and labels.tolist() == [0.0, 0.0, np.inf]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16), n=st.integers(2, 30), m=st.integers(0, 90),
        with_edge_ok=st.booleans(), with_vertex_ok=st.booleans(),
    )
    def test_expand_matches_the_scalar_model(self, seed, n, m, with_edge_ok, with_vertex_ok):
        rng = np.random.default_rng(seed)
        indptr, indices = random_csr(rng, n, m)
        edge_ok = rng.random(len(indices)) < 0.6 if with_edge_ok else None
        vertex_ok = rng.random(n) < 0.6 if with_vertex_ok else None
        seeds = rng.integers(0, n, size=rng.integers(1, n))  # repeats allowed
        visited = rng.random(n) < 0.2
        visited[seeds] = True
        expanded = visited & (rng.random(n) < 0.5)  # some seeds already expanded
        want = scalar_expand(indptr, indices, seeds, visited, expanded, edge_ok, vertex_ok)
        newly, expanded_now = expand_to_fixpoint(
            indptr, indices, seeds, visited, expanded, edge_ok=edge_ok, vertex_ok=vertex_ok
        )
        assert visited.tolist() == want[0].tolist() and expanded.tolist() == want[1].tolist()
        for got, ids in ((newly, want[2]), (expanded_now, want[3])):
            assert len(got) == len(ids) and set(got.tolist()) == ids  # duplicate-free

    def test_sorted_unique_of_nothing_and_of_several(self):
        assert sorted_unique().tolist() == [] and sorted_unique().dtype == np.int64
        a, b = np.asarray([5, 1, 5]), np.asarray([3, 1])
        assert sorted_unique(a, b).tolist() == [1, 3, 5]
        assert a.tolist() == [5, 1, 5] and b.tolist() == [3, 1]  # sorted on a copy


def undirected_csr(rng, n, m):
    """A random symmetric CSR: every edge stored in both directions."""
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    return np.cumsum(indptr), dst[order].astype(np.int64)


def full_scan_roots(indptr, indices, done, has_remote):
    """The oracle: every done vertex with a not-done neighbour or a remote
    edge, found by scanning every CSR slot (what ``any_neighbor`` did)."""
    border = np.zeros(len(done), dtype=bool)
    np.logical_or.at(border, slot_sources(indptr), ~done[indices])
    return np.flatnonzero(done & (border | has_remote))


class TestOpenBoundary:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16), n=st.integers(1, 40), m=st.integers(0, 120),
        directed=st.booleans(),
    )
    def test_incremental_roots_match_full_scan(self, seed, n, m, directed):
        """``done`` only grows, so re-testing ``roots(t) ∪ newly(t)`` finds
        exactly the roots a scan of the whole subgraph finds, at every step
        of a random monotone ``done`` sequence."""
        rng = np.random.default_rng(seed)
        indptr, indices = (random_csr if directed else undirected_csr)(rng, n, m)
        has_remote = rng.random(n) < 0.2
        done = np.zeros(n, dtype=bool)
        roots = np.empty(0, dtype=np.int64)
        for _step in range(8):
            newly = np.flatnonzero(~done & (rng.random(n) < rng.random()))
            done[newly] = True
            cand = sorted_unique(np.concatenate((roots, newly)))
            keep = open_boundary(indptr, indices, done, cand)
            assert keep.dtype == bool and keep.shape == cand.shape
            roots = cand[keep | has_remote[cand]]
            assert roots.tolist() == full_scan_roots(indptr, indices, done, has_remote).tolist()

    def test_no_edges(self):
        empty = np.empty(0, dtype=np.int64)
        indptr = np.zeros(4, dtype=np.int64)
        done = np.asarray([True, False, True])
        assert open_boundary(indptr, empty, done, np.asarray([0, 2])).tolist() == [False, False]
        assert open_boundary(indptr, empty, done, empty).tolist() == []


class TestSortedUnique:
    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3, 3], [0, 1, 2, 5, 9], [5, 1, 5, 0, 9, 1, 0]],
        ids=["empty", "singleton", "all-equal", "sorted", "repeats"],
    )
    def test_fixed_cases(self, values):
        arr = np.asarray(values, dtype=np.int64)
        got = sorted_unique(arr)
        assert got.dtype == np.int64 and got.tolist() == np.unique(arr).tolist()
        assert arr.tolist() == values  # the input is left alone

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.integers(0, 300), span=st.integers(1, 400))
    def test_equals_np_unique(self, seed, size, span):
        arr = np.random.default_rng(seed).integers(0, span, size=size)
        assert np.array_equal(sorted_unique(arr), np.unique(arr))


def scipy_components(n, src, dst):
    """The oracle: scipy numbers components by first occurrence, that is by
    minimum vertex."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    graph = sp.coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    return connected_components(graph, directed=False)


def assert_components(n, src, dst, got):
    ncomp, comp_id = got
    want_n, want_id = scipy_components(n, src, dst)
    assert ncomp == want_n  # the count,
    assert comp_id.dtype == np.int64 and np.array_equal(comp_id, want_id)  # the partition,
    if n:  # and the numbering: component c's minimum vertex grows with c
        first = np.full(ncomp, n)
        np.minimum.at(first, comp_id, np.arange(n))
        assert np.all(np.diff(first) > 0) and np.array_equal(comp_id[first], np.arange(ncomp))


@pytest.fixture
def rounds(monkeypatch):
    """Counts the hook-and-compress rounds :func:`components` takes."""
    # (``repro.kernels.components`` the attribute is the function.)
    mod = importlib.import_module("repro.kernels.components")
    calls = []
    hook = mod._hook_and_compress
    monkeypatch.setattr(mod, "_hook_and_compress", lambda *a: calls.append(1) or hook(*a))
    return calls


class TestCsrComponents:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40), m=st.integers(0, 120))
    def test_matches_scipy(self, seed, n, m):
        rng = np.random.default_rng(seed)
        indptr, indices = random_csr(rng, n, m)
        mask = rng.random(len(indices)) < 0.6
        rows = slot_sources(indptr)
        assert_components(
            n, rows[mask], indices[mask], csr_components(indptr, indices, edge_mask=mask)
        )
        assert_components(n, rows, indices, csr_components(indptr, indices))
        assert_components(n, rows, indices, components(n, rows, indices))

    @pytest.mark.parametrize("shape", ["path", "grid"])
    def test_wide_graphs_under_a_random_relabelling(self, shape, rounds):
        """A 10k-vertex path and a 100x100 grid: as wide as graphs get, the
        labels in no order a hooking scheme could lean on."""
        n = 10_000
        v = np.arange(n, dtype=np.int64)
        if shape == "path":
            src, dst = v[:-1], v[1:]
        else:
            right, down = v[v % 100 != 99], v[v < n - 100]
            src, dst = np.concatenate([right, down]), np.concatenate([right + 1, down + 100])
        relabel = np.random.default_rng(5).permutation(n)
        src, dst = relabel[src], relabel[dst]
        ncomp, comp_id = components(n, src, dst)
        assert ncomp == 1 and not comp_id.any()
        assert len(rounds) <= math.ceil(math.log2(n)) + 1
        # Cut every tenth edge: still scipy's components, numbered alike.
        keep = np.arange(len(src)) % 10 != 0
        assert_components(n, src[keep], dst[keep], components(n, src[keep], dst[keep]))

    def test_star_with_the_hub_as_the_largest_label(self, rounds):
        n = 1_000
        src = np.full(n - 1, n - 1, dtype=np.int64)
        dst = np.arange(n - 1, dtype=np.int64)
        assert_components(n, src, dst, components(n, src, dst))
        assert len(rounds) == 2  # the hub hooks under leaf 0, then every leaf does
        rounds.clear()
        assert_components(n, dst, src, components(n, dst, src))
        assert len(rounds) == 2

    def test_isolated_vertices_self_loops_and_the_empty_graph(self, rounds):
        none = np.empty(0, dtype=np.int64)
        assert_components(0, none, none, components(0, none, none))
        assert_components(0, none, none, csr_components(np.zeros(1, dtype=np.int64), none))
        assert_components(7, none, none, components(7, none, none))
        assert rounds == []  # no edge, no round
        src, dst = np.array([2, 5, 5, 3]), np.array([2, 1, 5, 3])  # loops on 2, 5, 3; one edge
        assert_components(7, src, dst, components(7, src, dst))
        assert len(rounds) == 1


class TestScatter:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(0, 80))
    def test_group_min_pairs(self, seed, m):
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, 4, size=m)
        keys = rng.integers(0, 10, size=m)
        values = rng.uniform(0, 1, size=m)
        best: dict[int, dict[int, float]] = {}
        for g, k, v in zip(groups, keys, values):
            per = best.setdefault(int(g), {})
            if v < per.get(int(k), np.inf):
                per[int(k)] = v
        got = {
            g: dict(zip(verts.tolist(), vals.tolist()))
            for g, verts, vals in group_min_pairs(groups, keys, values)
        }
        assert got == best

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(0, 80))
    def test_group_unique_pairs(self, seed, m):
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, 4, size=m)
        keys = rng.integers(0, 10, size=m)
        want: dict[int, set[int]] = {}
        for g, k in zip(groups, keys):
            want.setdefault(int(g), set()).add(int(k))
        got = {g: set(verts.tolist()) for g, verts in group_unique_pairs(groups, keys)}
        assert got == want


class TestAggregate:
    CELLS = [[1, 2, 2], None, [], [7, 8, 2], [2], [3, 2, 7]]

    def test_count_equal_in_cells(self):
        assert count(ragged(self.CELLS), 2) == 5
        assert count(ragged(self.CELLS), 9) == 0
        assert count(ragged([]), 2) == 0

    def test_contains_in_cells(self):
        got = contains(ragged(self.CELLS), 2)
        assert got.tolist() == [True, False, False, True, True, True]
        assert contains(ragged([]), 2).tolist() == []

    def test_a_pack_timestep_is_its_key_range(self):
        """A GoFS pack stores timestep ``i``'s row ``r`` under key ``i * rows + r``:
        a timestep's column is its key range, cut and made zero-based."""
        pack = ragged([[2], [5], [], [2, 2], [], [5, 2]])  # 2 timesteps x 3 rows
        row = pack.rows(3, 6)  # rows [2, 2], [], [5, 2]
        assert row.n == 3 and row.owners.tolist() == [0, 0, 2, 2]
        assert contains(row, 2).tolist() == [True, False, True]
        assert contains(row, 5).tolist() == [False, False, True]
        assert count(row, 2) == 3 and count(row, 5) == 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_random_cells_match_python_count(self, seed):
        rng = np.random.default_rng(seed)
        cells = []
        for _ in range(rng.integers(0, 30)):
            if rng.random() < 0.2:
                cells.append(None)
            else:
                cells.append(rng.integers(0, 5, size=rng.integers(0, 6)).tolist())
        tag = int(rng.integers(0, 5))
        want = sum(sum(1 for h in tw if h == tag) for tw in cells if tw)
        assert count(ragged(cells), tag) == want
        want_mask = [bool(tw) and tag in tw for tw in cells]
        assert contains(ragged(cells), tag).tolist() == want_mask
