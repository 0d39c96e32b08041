"""TDSP correctness: the paper's worked example + reference equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EngineConfig, run_application
from repro.algorithms.tdsp import TDSPComputation, TDSPFrontier, tdsp_labels_from_result
from repro.algorithms.reference import (
    single_source_shortest_paths,
    time_expanded_dijkstra,
)
from repro.graph import (
    AttributeSchema,
    AttributeSpec,
    GraphTemplate,
    build_collection,
)
from repro.partition import HashPartitioner, MetisLikePartitioner, partition_graph
from tests.conftest import make_random_template


def latency_template(n, src, dst, directed=False):
    return GraphTemplate(
        n,
        src,
        dst,
        directed=directed,
        edge_schema=AttributeSchema([AttributeSpec("latency", "float")]),
    )


class TestPaperWorkedExample:
    """Section III-C / Fig 5a: estimated 7, actual 35, optimal (TDSP) 14.

    Vertices S=0, A=1, E=2, C=3; δ=5 minutes.
    g0: S→A=5, S→E=2, E→C=5, A→C=30
    g1: latencies jump (E→C=30, A→C=30)
    g2: A→C drops to 4.
    Naive SSSP on g0 estimates S→E→C = 7; following that route actually
    takes 35 (wait at E until t=5, then 30); the time-aware optimum is
    S→A (5), wait δ, then A→C in g2 (4) = 14.
    """

    def setup_method(self):
        # Edges: 0:(S,A) 1:(S,E) 2:(E,C) 3:(A,C)
        self.tpl = latency_template(4, [0, 0, 2, 1], [1, 2, 3, 3])
        lat = {
            0: [5.0, 2.0, 5.0, 30.0],
            1: [5.0, 2.0, 30.0, 30.0],
            2: [5.0, 2.0, 30.0, 4.0],
        }

        def pop(inst, t):
            inst.edge_values.set_column("latency", np.asarray(lat[t]))

        self.coll = build_collection(self.tpl, 3, pop, delta=5.0)

    def test_naive_sssp_estimates_7(self):
        labels = single_source_shortest_paths(
            self.tpl, 0, self.coll.instance(0).edge_column("latency")
        )
        assert labels[3] == pytest.approx(7.0)  # S→E→C on g0

    def test_reference_tdsp_is_14(self):
        dist = time_expanded_dijkstra(self.coll, 0)
        assert dist[3] == pytest.approx(14.0)
        assert dist[1] == pytest.approx(5.0)  # S→A within g0
        assert dist[2] == pytest.approx(2.0)  # S→E within g0

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_distributed_tdsp_is_14(self, k):
        pg = partition_graph(self.tpl, k, HashPartitioner())
        res = run_application(TDSPComputation(0), pg, self.coll)
        labels = tdsp_labels_from_result(res, 4)
        assert labels[3] == pytest.approx(14.0)
        assert labels[0] == 0.0

    def test_frontier_outputs_record_finalization_timestep(self):
        pg = partition_graph(self.tpl, 2, HashPartitioner())
        res = run_application(TDSPComputation(0), pg, self.coll)
        finalized_at = {}
        for _t, _sg, rec in res.outputs:
            assert isinstance(rec, TDSPFrontier)
            for v, l in zip(rec.vertices, rec.labels):
                finalized_at[int(v)] = (rec.timestep, float(l))
        assert finalized_at[0] == (0, 0.0)
        assert finalized_at[1] == (0, 5.0)
        assert finalized_at[2] == (0, 2.0)
        assert finalized_at[3] == (2, 14.0)


def _random_case(seed, n=30, m=55, T=5, k=3):
    rng = np.random.default_rng(seed)
    tpl_raw = make_random_template(n, m, rng)
    tpl = latency_template(tpl_raw.num_vertices, tpl_raw.edge_src, tpl_raw.edge_dst)

    def pop(inst, t, _seed=seed):
        r = np.random.default_rng(10_000 + _seed * 100 + t)
        inst.edge_values.set_column(
            "latency", r.uniform(0.5, 12.0, inst.template.num_edges)
        )

    coll = build_collection(tpl, T, pop, delta=5.0)
    pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
    return tpl, coll, pg


class TestReferenceEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4))
    def test_matches_time_expanded_dijkstra(self, seed, k):
        tpl, coll, pg = _random_case(seed, k=k)
        res = run_application(TDSPComputation(0), pg, coll)
        got = tdsp_labels_from_result(res, tpl.num_vertices)
        want = time_expanded_dijkstra(coll, 0)
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )

    def test_metis_partitioning_equivalent(self):
        tpl, coll, _ = _random_case(5)
        pg = partition_graph(tpl, 3, MetisLikePartitioner(seed=2))
        res = run_application(TDSPComputation(0), pg, coll)
        got = tdsp_labels_from_result(res, tpl.num_vertices)
        want = time_expanded_dijkstra(coll, 0)
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )

    def test_different_sources(self):
        tpl, coll, pg = _random_case(7)
        for source in (0, 5, 17):
            res = run_application(TDSPComputation(source), pg, coll)
            got = tdsp_labels_from_result(res, tpl.num_vertices)
            want = time_expanded_dijkstra(coll, source)
            np.testing.assert_allclose(
                np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
            )

    def test_directed_graph(self):
        rng = np.random.default_rng(3)
        raw = make_random_template(25, 60, rng, directed=True)
        tpl = latency_template(25, raw.edge_src, raw.edge_dst, directed=True)

        def pop(inst, t):
            r = np.random.default_rng(42 + t)
            inst.edge_values.set_column("latency", r.uniform(0.5, 12.0, tpl.num_edges))

        coll = build_collection(tpl, 5, pop, delta=5.0)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
        res = run_application(TDSPComputation(0), pg, coll)
        got = tdsp_labels_from_result(res, 25)
        want = time_expanded_dijkstra(coll, 0)
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )


class TestBehaviour:
    def test_early_halt_when_all_finalized(self):
        """Small-world-like fast convergence: run ends before the last instance."""
        # Complete-ish graph with tiny latencies: everything reached at t=0.
        n = 8
        src, dst = [], []
        for i in range(n):
            for j in range(i + 1, n):
                src.append(i)
                dst.append(j)
        tpl = latency_template(n, src, dst)

        def pop(inst, t):
            inst.edge_values.set_column("latency", np.full(tpl.num_edges, 0.5))

        coll = build_collection(tpl, 20, pop, delta=5.0)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        res = run_application(TDSPComputation(0), pg, coll)
        assert res.halted_early
        assert res.timesteps_executed < 20

    def test_unreachable_vertices_inf(self):
        tpl = latency_template(4, [0], [1])  # vertices 2, 3 isolated

        def pop(inst, t):
            inst.edge_values.set_column("latency", np.array([1.0]))

        coll = build_collection(tpl, 3, pop, delta=5.0)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        res = run_application(TDSPComputation(0), pg, coll)
        labels = tdsp_labels_from_result(res, 4)
        assert labels[1] == 1.0
        assert np.isinf(labels[2]) and np.isinf(labels[3])

    def test_stall_halt_exact_when_latencies_within_window(self):
        """With all latencies ≤ δ, stall-based halting changes nothing but
        the number of timesteps executed."""
        rng = np.random.default_rng(21)
        raw = make_random_template(30, 55, rng)
        tpl = latency_template(30, raw.edge_src, raw.edge_dst)

        def pop(inst, t):
            r = np.random.default_rng(500 + t)
            inst.edge_values.set_column("latency", r.uniform(0.2, 4.5, tpl.num_edges))

        coll = build_collection(tpl, 12, pop, delta=5.0)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
        full = run_application(TDSPComputation(0), pg, coll)
        stall = run_application(TDSPComputation(0, halt_when_stalled=True), pg, coll)
        a = tdsp_labels_from_result(full, 30)
        b = tdsp_labels_from_result(stall, 30)
        np.testing.assert_allclose(
            np.nan_to_num(a, posinf=1e18), np.nan_to_num(b, posinf=1e18)
        )
        assert stall.timesteps_executed <= full.timesteps_executed

    def test_stall_halt_terminates_on_unreachable_graph(self):
        """Disconnected vertices never finalize; stall-halt still ends the run."""
        tpl = latency_template(4, [0], [1])

        def pop(inst, t):
            inst.edge_values.set_column("latency", np.array([1.0]))

        coll = build_collection(tpl, 30, pop, delta=5.0)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        res = run_application(TDSPComputation(0, halt_when_stalled=True), pg, coll)
        assert res.timesteps_executed <= 3
        labels = tdsp_labels_from_result(res, 4)
        assert labels[1] == 1.0 and np.isinf(labels[2])

    def test_labels_within_horizon(self):
        tpl, coll, pg = _random_case(11)
        res = run_application(TDSPComputation(0), pg, coll)
        labels = tdsp_labels_from_result(res, tpl.num_vertices)
        finite = labels[np.isfinite(labels)]
        assert np.all(finite <= len(coll) * coll.delta)
        assert np.all(finite >= 0)


class CountingSource:
    """Instance source whose edge tables are backed by a recording locate:
    every ``locate_edges`` lands in ``locates`` as ``(timestep, id(rows))``."""

    def __init__(self, coll):
        self.coll, self.locates, self.handed_out = coll, [], []

    def instance(self, timestep):
        from repro.graph import GraphInstance
        from repro.graph.attributes import AttributeTable

        real = self.coll.instance(timestep)

        def locate(name, rows):
            self.locates.append((timestep, None if rows is None else id(rows)))
            column = real.edge_column(name)
            return (column.copy(), None) if rows is None else (column, rows)

        table = AttributeTable(real.template.edge_schema, real.template.num_edges, locate=locate)
        self.handed_out.append(GraphInstance(real.template, real.timestamp, edge_values=table))
        return self.handed_out[-1]

    def resident_bytes(self):
        return 0


class OpenCutRows(TDSPComputation):
    """TDSP that also outputs, per subgraph at the end of each timestep, how
    many of its cut rows are still open (an ``int`` beside the frontiers)."""

    def end_of_timestep(self, ctx):
        super().end_of_timestep(ctx)
        ctx.output(int(ctx.state["open"].sum()))


class TestPayForTheBand:
    """A timestep costs what the wave touches, not what the subgraph holds."""

    def test_idle_subgraphs_and_settled_ones_take_nothing(self):
        """A subgraph the wave has not reached reads nothing; neither does
        one that is completely finalized and whose cut rows have all
        delivered — it has no root left, not even across its cut edges."""
        from repro.generators import road_latency_collection, road_network

        tpl = road_network(1500, seed=3)
        coll = road_latency_collection(tpl, 20, seed=3)
        pg = partition_graph(tpl, 4, MetisLikePartitioner(seed=3))
        sources = [CountingSource(coll) for _ in range(4)]
        res = run_application(OpenCutRows(0), pg, coll, sources=sources)
        got = tdsp_labels_from_result(res, tpl.num_vertices)
        assert got.tobytes() == time_expanded_dijkstra(coll, 0).tobytes()

        first, reached, still_open = {}, {}, {}
        for t, sgid, rec in res.outputs:
            if isinstance(rec, TDSPFrontier):
                first.setdefault(sgid, t)
                reached[sgid] = reached.get(sgid, 0) + rec.count
            else:
                still_open[t, sgid] = rec
        locates = {(t, rows) for src in sources for t, rows in src.locates}
        waited = settled = 0
        for sg in pg.subgraphs:
            sgid = sg.subgraph_id
            local, remote = id(sg.edge_index), id(sg.remote.edge_index)
            finals = [t for t, s, rec in res.outputs if s == sgid and isinstance(rec, TDSPFrontier)]
            last = max(finals, default=-1)
            for t in range(res.timesteps_executed):
                if t < first.get(sgid, res.timesteps_executed):
                    # The wave has not reached it: no roots, no improving message.
                    assert (t, local) not in locates and (t, remote) not in locates
                    waited += 1
                elif reached[sgid] == sg.num_vertices and t > last and not still_open[t - 1, sgid]:
                    # Completely finalized and every cut row closed: no roots.
                    assert (t, local) not in locates and (t, remote) not in locates
                    settled += 1
        assert waited >= 10 and settled >= 10, "the case must hold both kinds of pair"
        # Whole columns are never asked for, and nothing table-wide was built.
        assert all(rows is not None for _t, rows in locates)
        handed_out = [inst for src in sources for inst in src.handed_out]
        assert len(handed_out) == 4 * res.timesteps_executed
        assert all(list(inst.edge_values._columns) == [] for inst in handed_out)

    @pytest.mark.parametrize("root_pruning", [False, True])
    def test_wide_frontier_rounds_never_depart_from_stale_labels(self, root_pruning, monkeypatch):
        """``label`` lives for the whole run, and a wide round reads *every*
        slot's source label: its "a source outside the frontier is already
        settled" argument needs every finite label to belong to this
        timestep.  Dense graphs with long latencies make rounds wide over
        many timesteps; the result must be the oracle's, byte for byte, and
        the array all-``inf`` again once the run is over."""
        from repro.algorithms import tdsp as tdsp_module

        wide = []
        real = tdsp_module.relax_to_fixpoint

        def spy(indptr, indices, weights, labels, seeds, **kw):
            deg = int((indptr[np.asarray(seeds) + 1] - indptr[np.asarray(seeds)]).sum())
            wide.append(2 * deg >= len(indices))
            return real(indptr, indices, weights, labels, seeds, **kw)

        monkeypatch.setattr(tdsp_module, "relax_to_fixpoint", spy)
        rng = np.random.default_rng(3)
        raw = make_random_template(40, 300, rng)
        tpl = latency_template(raw.num_vertices, raw.edge_src, raw.edge_dst)

        def pop(inst, t):
            r = np.random.default_rng(500 + t)
            inst.edge_values.set_column("latency", r.uniform(2.0, 30.0, tpl.num_edges))

        coll = build_collection(tpl, 8, pop, delta=5.0)
        pg = partition_graph(tpl, 2, MetisLikePartitioner(seed=1))
        res = run_application(TDSPComputation(0, root_pruning=root_pruning), pg, coll)
        assert res.timesteps_executed >= 4
        assert sum(wide) >= 3, "the case must exercise the whole-CSR sweep"
        got = tdsp_labels_from_result(res, tpl.num_vertices)
        assert got.tobytes() == time_expanded_dijkstra(coll, 0).tobytes()
        # Between timesteps every subgraph's label array is all-inf again.
        assert all(np.isinf(st["label"]).all() for st in res.states.values())


def frames_in(res, timestep):
    return sum(r.frames_sent for r in res.metrics.step_records if r.timestep == timestep)


class TestCutRowsCloseOnDelivery:
    """A cut row carries the wave once: after it delivered a candidate inside
    a window its head is final, and the pruned run stops re-sending over it."""

    def test_carn_2000_counts_are_pinned_on_serial_and_process(self):
        """Pruned 37 supersteps / 22 remote messages, unpruned 37 / 38 (the
        counts recorded before cut rows closed).  At 10 instances most
        remote messages are the wave's first crossings, so the pruned run
        sends 0.58x, not less than half."""
        from repro.generators import paper_datasets

        data = paper_datasets(2000, 10)["CARN"]
        tpl, coll = data["template"], data["road"]
        pg = partition_graph(tpl, 4, MetisLikePartitioner(seed=0))
        pinned = {True: (37, 22), False: (37, 38)}
        labels = set()
        for executor in ("serial", "process"):
            for pruning in (True, False):
                comp = TDSPComputation(0, halt_when_stalled=True, root_pruning=pruning)
                res = run_application(comp, pg, coll, config=EngineConfig(executor=executor))
                s = res.metrics.summary()
                assert (s["supersteps"], s["remote_messages"]) == pinned[pruning], (executor, s)
                labels.add(tdsp_labels_from_result(res, tpl.num_vertices).tobytes())
        assert len(labels) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_once_every_cut_row_closed_no_frame_crosses_and_a_timestep_is_one_superstep(
        self, k, monkeypatch
    ):
        from repro.generators import paper_datasets
        from repro.runtime import Cluster

        data = paper_datasets(2000, 40)["CARN"]
        tpl, coll = data["template"], data["road"]
        pg = partition_graph(tpl, k, MetisLikePartitioner(seed=0))
        real, supersteps = Cluster.run_round, {}

        def run_round(self, op, timestep, superstep, payloads):
            if op == "superstep":
                supersteps[timestep] = supersteps.get(timestep, 0) + 1
            return real(self, op, timestep, superstep, payloads)

        monkeypatch.setattr(Cluster, "run_round", run_round)
        res = run_application(OpenCutRows(0, halt_when_stalled=True), pg, coll)
        got = tdsp_labels_from_result(res, tpl.num_vertices)
        assert got.tobytes() == time_expanded_dijkstra(coll, 0).tobytes()

        still_open = {}
        for t, _sg, rec in res.outputs:
            if not isinstance(rec, TDSPFrontier):
                still_open[t] = still_open.get(t, 0) + rec
        closed_at = min(t for t, n in still_open.items() if n == 0)
        after = range(closed_at + 1, res.timesteps_executed)
        assert len(after) >= 3, "the case must run on after the last cut row closed"
        assert [frames_in(res, t) for t in after] == [0] * len(after)
        assert [supersteps[t] for t in after] == [1] * len(after)
        # Algorithm 2's profile keeps re-sending over the closed rows.
        monkeypatch.undo()
        comp = TDSPComputation(0, halt_when_stalled=True, root_pruning=False)
        full = run_application(comp, pg, coll)
        assert all(frames_in(full, t) > 0 for t in after)

