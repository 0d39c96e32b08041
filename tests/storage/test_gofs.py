"""Tests for the GoFS store: slices, packing/binning, partition views."""

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import AttributeSchema, AttributeSpec, GraphTemplate, Ragged, build_collection
from repro.observability.tracer import Tracer
from repro.partition import HashPartitioner, decompose, partition_graph
from repro.storage import (
    GoFS,
    GoFSPartitionView,
    SliceKey,
    bin_rows,
    read_slice,
    slice_filename,
)
from repro.storage.serde import read_arrays
from repro.storage.slices import rows_filename
from tests.conftest import (
    make_grid_template, make_random_template, pack_arrays, populate_random, ragged,
)
from tests.storage.test_slices_v2 import entry_of, header_of, rewrite_header


def read(inst):
    """Read a row of ``inst``: what makes a view read the pack behind it."""
    inst.edge_column("latency")
    return inst


@pytest.fixture
def store(tmp_path):
    tpl = make_grid_template(5, 6)
    coll = build_collection(tpl, 12, populate_random(5), delta=2.0, t0=1.0)
    pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
    manifest = GoFS.write_collection(tmp_path, pg, coll, packing=4, binning=2)
    return tmp_path, tpl, coll, pg, manifest


class TestWrite:
    def test_manifest(self, store):
        root, tpl, coll, pg, manifest = store
        assert manifest["num_timesteps"] == 12
        assert manifest["packing"] == 4 and manifest["binning"] == 2
        assert manifest["num_partitions"] == 3
        assert manifest["t0"] == 1.0 and manifest["delta"] == 2.0
        assert GoFS.read_manifest(root) == manifest

    def test_bins_cover_all_subgraphs(self, store):
        _, _, _, pg, manifest = store
        for p, bins in enumerate(manifest["bins"]):
            got = sorted(s for b in bins for s in b)
            want = sorted(sg.subgraph_id for sg in pg.partitions[p].subgraphs)
            assert got == want
            assert all(len(b) <= 2 for b in bins)

    def test_slice_files_exist(self, store):
        root, _, _, _, manifest = store
        for p, bins in enumerate(manifest["bins"]):
            for b in range(len(bins)):
                for k in range(3):  # 12 timesteps / packing 4
                    assert (root / slice_filename(SliceKey(p, b, k))).exists()

    def test_template_roundtrip(self, store):
        root, tpl, *_ = store
        assert GoFS.load_template(root).equals(tpl)

    def test_bad_packing(self, store, tmp_path):
        root, tpl, coll, pg, _ = store
        with pytest.raises(ValueError):
            GoFS.write_collection(tmp_path / "x", pg, coll, packing=0)


class TestPartitionView:
    def test_values_match_original_on_owned_rows(self, store):
        root, tpl, coll, pg, _ = store
        for p in range(3):
            view = GoFSPartitionView(root, p)
            own_vertices = pg.partitions[p].vertices
            own_edges = np.unique(
                np.concatenate(
                    [sg.edge_index for sg in pg.partitions[p].subgraphs]
                    + [sg.remote.edge_index for sg in pg.partitions[p].subgraphs]
                )
            )
            for t in (0, 3, 4, 11):
                got = view.instance(t)
                want = coll.instance(t)
                assert got.timestamp == want.timestamp
                assert np.array_equal(
                    got.vertex_column("traffic")[own_vertices],
                    want.vertex_column("traffic")[own_vertices],
                )
                assert np.array_equal(
                    got.edge_column("latency")[own_edges],
                    want.edge_column("latency")[own_edges],
                )
                # The ragged column (tweets) round-trips too.
                got_tw = got.vertex_column("tweets").take(own_vertices)
                assert got_tw.equals(want.vertex_column("tweets").take(own_vertices))

    def test_load_events_at_pack_boundaries(self, store):
        root, *_ = store
        view = GoFSPartitionView(root, 0)
        for t in range(12):
            read(view.instance(t))
        boundaries = [t for t, _s in view.load_events]
        assert boundaries == [0, 4, 8]

    def test_no_reload_within_pack(self, store):
        root, *_ = store
        view = GoFSPartitionView(root, 0)
        read(view.instance(1))
        read(view.instance(2))
        read(view.instance(1))
        assert len(view.load_events) == 1

    def test_resident_bytes(self, store):
        root, *_ = store
        view = GoFSPartitionView(root, 0)
        assert view.resident_bytes() == 0
        inst = view.instance(0)
        assert view.resident_bytes() == 0  # headers only
        read(inst)
        assert view.resident_bytes() > 0

    def test_out_of_range(self, store):
        root, *_ = store
        view = GoFSPartitionView(root, 0)
        with pytest.raises(IndexError):
            view.instance(12)

    def test_invalid_partition(self, store):
        root, *_ = store
        with pytest.raises(ValueError, match="partition"):
            GoFSPartitionView(root, 7)

    def test_pickle_roundtrip(self, store):
        root, tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 1)
        view.instance(0)  # populate the cache (must not be pickled)
        clone = pickle.loads(pickle.dumps(view))
        assert clone.partition_id == 1
        assert clone.resident_bytes() == 0  # cache not carried over
        own = pg.partitions[1].vertices
        assert np.array_equal(
            clone.instance(5).vertex_column("traffic")[own],
            coll.instance(5).vertex_column("traffic")[own],
        )

    def test_partition_views_helper(self, store):
        root, *_ = store
        views = GoFS.partition_views(root)
        assert [v.partition_id for v in views] == [0, 1, 2]

    def test_the_view_holds_the_pack_its_last_instance_served(self, store):
        root, *_ = store
        view = GoFSPartitionView(root, 0)
        for t in (0, 4, 1, 8, 0):
            read(view.instance(t))
            assert view._pack.pack == t // 4
            assert view.resident_bytes() == _one_pack_nbytes(root, t)  # one pack, never more
        # Every pack boundary drops the held pack: a revisit reads it again.
        assert [t for t, _s in view.load_events] == [0, 4, 1, 8, 0]


class TestBinRows:
    def test_rows_cover_bin(self, store):
        _, _, _, pg, _ = store
        subgraphs = pg.partitions[0].subgraphs[:2]
        verts, edges = bin_rows(subgraphs)
        want_verts = np.unique(np.concatenate([sg.vertices for sg in subgraphs]))
        assert np.array_equal(verts, want_verts)
        for sg in subgraphs:
            assert np.isin(sg.edge_index, edges).all()
            assert np.isin(sg.remote.edge_index, edges).all()

    def test_empty_bin(self):
        verts, edges = bin_rows([])
        assert len(verts) == 0 and len(edges) == 0


def _one_pack_nbytes(root, timestep=0):
    """Resident bytes of exactly the pack of ``timestep`` (of partition 0)."""
    probe = GoFSPartitionView(root, 0)
    read(probe.instance(timestep))
    return probe.resident_bytes()


class TestSharedManifest:
    def test_views_share_one_manifest_read(self, store, monkeypatch):
        root, *_ = store
        calls = {"manifest": 0, "template": 0}
        real_manifest, real_template = GoFS.read_manifest, GoFS.load_template

        def counting_manifest(r):
            calls["manifest"] += 1
            return real_manifest(r)

        def counting_template(r):
            calls["template"] += 1
            return real_template(r)

        monkeypatch.setattr(GoFS, "read_manifest", staticmethod(counting_manifest))
        monkeypatch.setattr(GoFS, "load_template", staticmethod(counting_template))
        views = GoFS.partition_views(root)
        assert calls == {"manifest": 1, "template": 1}
        assert views[0].manifest is views[1].manifest is views[2].manifest
        assert views[0].template is views[1].template is views[2].template

    def test_shared_views_still_read_correctly(self, store):
        root, tpl, coll, pg, _ = store
        views = GoFS.partition_views(root)
        own = pg.partitions[2].vertices
        assert np.array_equal(
            views[2].instance(5).vertex_column("traffic")[own],
            coll.instance(5).vertex_column("traffic")[own],
        )

    def test_pickled_clone_rereads_independently(self, store):
        root, *_ = store
        views = GoFS.partition_views(root)
        clone = pickle.loads(pickle.dumps(views[0]))
        assert clone.manifest == views[0].manifest
        assert clone.manifest is not views[0].manifest
        assert clone.template is not views[0].template


def owned_rows(pg, p):
    """(vertex rows, edge rows) partition ``p``'s slices cover."""
    return bin_rows(pg.partitions[p].subgraphs)


def column_of(inst, kind, name):
    return inst.vertex_column(name) if kind == "v" else inst.edge_column(name)


def same_cells(a, b):
    return a.equals(b) if isinstance(a, Ragged) else a.tobytes() == b.tobytes()


def rows_of(column, rows):
    """``column[rows]``: of a ragged column, :meth:`Ragged.take`."""
    return column.take(rows) if isinstance(column, Ragged) else column[rows]


def default_but(spec, column, rows):
    """``column`` at ``rows``, the schema default everywhere else."""
    if not spec.ragged:
        want = spec.allocate(len(column))
        want[rows] = column[rows]
        return want
    keep = np.zeros(column.n, dtype=bool)
    keep[rows] = True
    return ragged([column.row(v).tolist() if kept else [] for v, kept in enumerate(keep)])


class TestDatasetFingerprint:
    """A store says what it was written for, and a run is held to it."""

    def test_manifest_records_the_fingerprint(self, store):
        root, tpl, coll, pg, manifest = store
        want = pg.fingerprint(len(coll))
        assert want == {
            "num_vertices": tpl.num_vertices,
            "num_edges": tpl.num_edges,
            "num_timesteps": 12,
            "num_partitions": 3,
            "vertex_subgraph_crc32": want["vertex_subgraph_crc32"],
        }
        assert {k: manifest[k] for k in want} == want
        for view in GoFS.partition_views(root):
            view.check_dataset(want)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_a_run_over_another_partitioning_is_a_value_error(self, store, executor):
        from repro.algorithms import TDSPComputation
        from repro.core import EngineConfig, run_application

        root, tpl, coll, pg, _ = store
        views = GoFS.partition_views(root)
        run_application(TDSPComputation(0), pg, coll, sources=views)  # its own store: fine
        other = partition_graph(tpl, 3, HashPartitioner(seed=2))  # same |V|, |E|, k, T
        with pytest.raises(ValueError, match="vertex_subgraph_crc32"):
            run_application(
                TDSPComputation(0), other, coll, sources=views,
                config=EngineConfig(executor=executor),
            )
        shorter = build_collection(tpl, 5, populate_random(5), delta=2.0, t0=1.0)
        with pytest.raises(ValueError, match="num_timesteps=12 but the run has num_timesteps=5"):
            run_application(TDSPComputation(0), pg, shorter, sources=views)

    def test_a_manifest_without_the_fingerprint_is_refused(self, store):
        import json

        root, *_ = store
        manifest = json.loads((root / "manifest.json").read_text())
        del manifest["vertex_subgraph_crc32"]
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="rewrite with `GoFS.write_collection`"):
            GoFS.partition_views(root)


def _cut_tags_collection(seed=3):
    """A random template whose edges carry a ragged ``tags`` attribute, in
    four instances: a cut edge's tags are in two partitions' slices."""
    rng = np.random.default_rng(seed)
    base = make_random_template(40, 90, rng)
    tpl = GraphTemplate(
        base.num_vertices, base.edge_src, base.edge_dst, name="tags",
        vertex_schema=AttributeSchema([AttributeSpec("traffic", "float")]),
        edge_schema=AttributeSchema(
            [AttributeSpec("latency", "float"), AttributeSpec("tags", "ragged")]
        ),
    )

    def populate(inst, t):
        r = np.random.default_rng(seed + t)
        inst.vertex_values.set_column("traffic", r.uniform(0, 9, tpl.num_vertices))
        inst.edge_values.set_column("latency", r.uniform(0, 9, tpl.num_edges))
        inst.edge_values.set_column(
            "tags", ragged([r.integers(0, 5, r.integers(0, 3)).tolist() for _ in range(tpl.num_edges)])
        )

    return tpl, build_collection(tpl, 4, populate, t0=3.0, delta=0.5)


class TestOpen:
    """The store is the dataset: ``GoFS.open`` gives back the partitioned
    graph, the collection and the views it was written from."""

    def test_open_gives_back_what_was_written(self, tmp_path):
        tpl, coll = _cut_tags_collection()
        pg = partition_graph(tpl, 3, HashPartitioner(seed=2))
        assert any(sg.remote.edge_index.size for sg in pg.subgraphs)  # cut edges
        GoFS.write_collection(tmp_path, pg, coll, packing=3, binning=1)
        opened, collection, views = GoFS.open(tmp_path)
        assert opened.fingerprint(4) == pg.fingerprint(4)
        np.testing.assert_array_equal(opened.vertex_partition, pg.vertex_partition)
        assert [sg.vertices.tolist() for sg in opened.subgraphs] == [
            sg.vertices.tolist() for sg in pg.subgraphs
        ]
        assert opened.template.equals(tpl) and collection.template is opened.template
        assert (len(collection), collection.t0, collection.delta) == (4, 3.0, 0.5)
        for t in range(4):
            got, want = collection.instance(t), coll.instance(t)
            for kind, schema in (("v", tpl.vertex_schema), ("e", tpl.edge_schema)):
                for spec in schema:
                    assert same_cells(
                        column_of(got, kind, spec.name), column_of(want, kind, spec.name)
                    ), (t, kind, spec.name)
        assert [v.partition_id for v in views] == [0, 1, 2]
        assert all(v.template is opened.template for v in views)
        # A view pickles as its path.
        assert all(v.__reduce__() == (type(v), (tmp_path, p)) for p, v in enumerate(views))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_a_run_over_the_opened_store_equals_the_run_in_memory(self, store, executor):
        from repro.algorithms import TDSPComputation, tdsp_labels_from_result
        from repro.core import EngineConfig, run_application

        root, tpl, coll, pg, _ = store
        config = EngineConfig(executor=executor)
        want = run_application(TDSPComputation(0), pg, coll, config=config)
        opened, collection, views = GoFS.open(root)
        got = run_application(TDSPComputation(0), opened, collection, sources=views, config=config)
        counts = ("timesteps", "supersteps", "messages", "remote_messages", "bytes_sent")
        assert [got.metrics.summary()[k] for k in counts] == [
            want.metrics.summary()[k] for k in counts
        ]
        np.testing.assert_array_equal(
            tdsp_labels_from_result(got, tpl.num_vertices),
            tdsp_labels_from_result(want, tpl.num_vertices),
        )

    def test_partition_views_never_read_the_assignment(self, store):
        root, *_ = store
        (root / "assignment.gsl").unlink()
        assert len(GoFS.partition_views(root)) == 3
        with pytest.raises(ValueError, match="assignment.gsl cannot be read"):
            GoFS.open(root)

    @pytest.mark.parametrize("damage", ["truncated", "float", "short", "out of range"])
    def test_a_garbled_assignment_is_refused_naming_it(self, store, damage):
        from repro.storage.serde import write_arrays

        root, tpl, *_ = store
        path = root / "assignment.gsl"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:40])
        else:
            assignment = {
                "float": np.zeros(tpl.num_vertices),
                "short": np.zeros(tpl.num_vertices - 1, dtype=np.int64),
                "out of range": np.full(tpl.num_vertices, 3, dtype=np.int64),
            }[damage]
            with open(path, "wb") as fp:
                write_arrays(fp, {"assignment": assignment})
        with pytest.raises(ValueError, match=str(path)):
            GoFS.open(root)

    def test_an_assignment_of_another_partitioning_is_refused(self, store):
        from repro.storage.serde import write_arrays

        root, tpl, coll, pg, _ = store
        other = partition_graph(tpl, 3, HashPartitioner(seed=2)).vertex_partition
        assert not np.array_equal(other, pg.vertex_partition)
        with open(root / "assignment.gsl", "wb") as fp:
            write_arrays(fp, {"assignment": other})
        with pytest.raises(ValueError, match=r"assignment\.gsl decomposes to vertex_subgraph_crc32="):
            GoFS.open(root)

    def test_a_format_1_manifest_is_refused(self, store):
        import json

        root, *_ = store
        manifest = json.loads((root / "manifest.json").read_text())
        (root / "manifest.json").write_text(json.dumps({**manifest, "format_version": 1}))
        for open_store in (GoFS.open, GoFS.partition_views, GoFS.read_manifest):
            with pytest.raises(ValueError, match=r"manifest\.json is format 1, not 2.*rewrite"):
                open_store(root)

    def test_the_manifest_holds_the_dataset_verbatim(self, tmp_path, store):
        _, tpl, coll, pg, manifest = store
        assert manifest["format_version"] == 2 and manifest["dataset"] == {}
        dataset = {"graph": "grid", "seed": 5, "scale": 30}
        written = GoFS.write_collection(tmp_path / "s", pg, coll, dataset=dataset)
        assert written["dataset"] == GoFS.read_manifest(tmp_path / "s")["dataset"] == dataset

    def test_a_rewrite_that_dies_leaves_a_store_no_one_opens(self, store, monkeypatch):
        """At 9cb3237 the old manifest outlived a rewrite that died after a
        slice, so a run with the old flags read the new dataset's files."""
        import repro.storage.gofs as gofs

        root, tpl, coll, pg, _ = store
        other = build_collection(tpl, 12, populate_random(6), delta=2.0, t0=1.0)
        calls = []

        def dies_on_the_third(*args):
            calls.append(args[1])
            if len(calls) == 3:
                raise OSError("disk gone")
            return write_slice(*args)

        write_slice = gofs.write_slice
        monkeypatch.setattr(gofs, "write_slice", dies_on_the_third)
        with pytest.raises(OSError, match="disk gone"):
            GoFS.write_collection(root, pg, other, packing=4, binning=2)
        assert sorted(p.name for p in root.glob("manifest*")) == []
        for open_store in (GoFS.open, GoFS.partition_views):
            with pytest.raises(ValueError, match=r"manifest\.json cannot be read"):
                open_store(root)


class TestLazyProjection:
    def test_instance_projects_nothing_until_a_column_is_read(self, store):
        root, tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 0)
        tracer = Tracer()
        view.attach_tracer(tracer)
        inst = view.instance(1)
        assert list(inst.vertex_values._columns) == []
        assert list(inst.edge_values._columns) == []
        assert view.columns_projected == view.bytes_projected == 0
        assert view.projected == frozenset()
        assert view.load_events == []  # headers only: the first row read reads the pack
        inst.edge_column("latency")
        assert len(view.load_events) == 1
        inst.edge_column("latency")  # second read: already a plain column
        assert list(inst.edge_values._columns) == ["latency"]
        assert list(inst.vertex_values._columns) == []
        assert view.columns_projected == 1
        assert view.bytes_projected == 8 * tpl.num_edges
        assert view.projected == {"e__latency"}
        view.instance(2).edge_column("latency")
        assert tracer.counters["gofs.columns_projected"] == view.columns_projected == 2
        assert tracer.counters["gofs.bytes_projected"] == view.bytes_projected

    def test_no_read_of_a_store_unpickles(self, store, monkeypatch):
        """Opening a view (the template's schemas are JSON) and reading every
        column — the ragged tweets too — executes no pickle."""
        root, *_ = store
        monkeypatch.setattr(pickle, "loads", lambda b: pytest.fail("a store read unpickled"))
        view = GoFSPartitionView(root, 0)
        for t in range(12):
            inst = view.instance(t)
            inst.edge_column("latency")
            inst.vertex_column("traffic")
            inst.vertex_column("tweets")

    def test_reload_instance_projection_is_not_counted(self, store):
        root, _tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 0)
        view.attach_tracer(Tracer())
        inst = view.reload_instance(4)
        _verts, edges = owned_rows(pg, 0)
        assert np.array_equal(
            inst.edge_column("latency")[edges], coll.instance(4).edge_column("latency")[edges]
        )
        assert view.columns_projected == 0 and view.projected == frozenset()
        assert "gofs.columns_projected" not in view.tracer.counters

    def test_instance_outlives_its_packs_eviction(self, store):
        root, _tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 0)
        old = view.instance(1)
        read(view.instance(0))  # pack 0 read; `old` has projected nothing
        read(view.instance(4))  # pack 0 dropped
        assert view._pack.pack == 1
        verts, edges = owned_rows(pg, 0)
        want = coll.instance(1)
        assert np.array_equal(old.edge_column("latency")[edges], want.edge_column("latency")[edges])
        assert old.vertex_column("tweets").take(verts).equals(want.vertex_column("tweets").take(verts))
        assert view.resident_bytes() == _one_pack_nbytes(root, 4)  # only the held pack counts
        assert len(view.load_events) == 2  # ... and nothing was re-read

    def test_copy_and_pickle_of_an_untouched_instance_keep_the_values(self, store):
        root, _tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 1)
        verts, _edges = owned_rows(pg, 1)
        want = coll.instance(3).vertex_column("traffic")[verts]
        for clone in (view.instance(3).copy(), pickle.loads(pickle.dumps(view.instance(3)))):
            assert np.array_equal(clone.vertex_column("traffic")[verts], want)
        assert view.instance(3).equals(view.instance(3))
        assert not view.instance(3).equals(view.instance(2))

    def test_pack_reads_decode_what_instances_have_projected(self, store):
        """A pack read decodes the columns instances have projected, so what
        a column compute uses costs is counted as load."""
        root, _tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 0)
        view.instance(0).vertex_column("tweets")
        inst = read(view.instance(4))  # reads pack 1, tweets included
        assert all("v__tweets" in arrays._decoded for arrays in view._pack)
        verts, _edges = owned_rows(pg, 0)
        assert inst.vertex_column("tweets").take(verts).equals(
            coll.instance(4).vertex_column("tweets").take(verts)
        )
        assert len(view.load_events) == 2


def numeric_store(root):
    """A store of numeric columns only: three on five edges and six vertices."""
    tpl = GraphTemplate(
        6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5],
        vertex_schema=AttributeSchema([AttributeSpec("traffic", "float")]),
        edge_schema=AttributeSchema([AttributeSpec("latency", "float"), AttributeSpec("lanes", "int")]),
    )

    def populate(inst, t):
        inst.vertex_values.set_column("traffic", np.arange(6) + 10.0 * t)
        inst.edge_values.set_column("latency", np.arange(5) + 0.5 * t)
        inst.edge_values.set_column("lanes", np.arange(5) + t)

    coll = build_collection(tpl, 5, populate)
    pg = decompose(tpl, np.asarray([0, 0, 0, 1, 1, 1]), 2)
    GoFS.write_collection(root, pg, coll, packing=2, binning=5)
    return tpl, coll, pg


class TestLoadErrorsSurfaceInInstance:
    """A bad slice fails the pack load inside ``instance()`` — never later,
    in the middle of ``compute``, when the column is first read."""

    KEY = SliceKey(0, 0, 1)  # partition 0's only bin, the pack of timesteps 2-3

    def rewrite(self, root, edit, defaults=()):
        path = root / slice_filename(self.KEY)
        arrays = dict(read_slice(root, self.KEY).items())
        edit(arrays)
        path.write_bytes(pack_arrays(arrays, defaults=defaults))
        return path

    def assert_fails_in_instance(self, root, match):
        view = GoFSPartitionView(root, 0)
        view.instance(0).edge_column("latency")  # the untouched pack still loads
        with pytest.raises(ValueError, match=match) as excinfo:
            view.instance(2)
        assert str(root / slice_filename(self.KEY)) in str(excinfo.value)
        assert repr(self.KEY) in str(excinfo.value)

    def test_truncated_file(self, tmp_path):
        numeric_store(tmp_path)
        path = tmp_path / slice_filename(self.KEY)
        path.write_bytes(path.read_bytes()[:-9])
        self.assert_fails_in_instance(tmp_path, "payload holds")

    def test_lying_nbytes(self, tmp_path):
        numeric_store(tmp_path)
        path = tmp_path / slice_filename(self.KEY)

        def lie(header):
            entry_of(header, "e__lanes")["nbytes"] -= 8

        path.write_bytes(rewrite_header(path.read_bytes(), lie))
        self.assert_fails_in_instance(tmp_path, "'e__lanes' records")

    def test_wrong_dtype(self, tmp_path):
        numeric_store(tmp_path)

        def edit(arrays):
            arrays["e__lanes"] = arrays["e__lanes"].astype(np.int32)

        self.rewrite(tmp_path, edit)
        self.assert_fails_in_instance(tmp_path, "column e__lanes is <i4")

    def test_wrong_shape(self, tmp_path):
        numeric_store(tmp_path)

        def edit(arrays):
            arrays["v__traffic"] = arrays["v__traffic"][:1]

        self.rewrite(tmp_path, edit)
        self.assert_fails_in_instance(tmp_path, r"column v__traffic is <f8 \[1, 3\]")

    def test_missing_column(self, tmp_path):
        """Absent from the file *and* from ``defaults`` is the error; absent
        from the file but listed is a column nobody set (TestNeverSetColumns)."""
        numeric_store(tmp_path)
        self.rewrite(tmp_path, lambda arrays: arrays.pop("e__latency"))
        self.assert_fails_in_instance(
            tmp_path, "column e__latency is missing: neither stored nor listed under defaults"
        )

    def test_column_both_stored_and_default(self, tmp_path):
        numeric_store(tmp_path)
        self.rewrite(tmp_path, lambda arrays: None, defaults=["e__lanes"])
        self.assert_fails_in_instance(tmp_path, "column e__lanes is both stored and listed")

    @pytest.mark.parametrize("where", ["stored", "defaults"])
    def test_unknown_entry(self, tmp_path, where):
        numeric_store(tmp_path)
        if where == "stored":
            self.rewrite(tmp_path, lambda arrays: arrays.update(e__speed=arrays["e__latency"]))
        else:
            self.rewrite(tmp_path, lambda arrays: None, defaults=["e__speed"])
        self.assert_fails_in_instance(tmp_path, "column e__speed is not in the schema")

    # A bin's rows are read once, when the view opens (slice format 4): a bad
    # rows file fails there — in ``partition_views``, before any timestep.

    def rewrite_rows(self, root, edit):
        path = root / rows_filename(0, 0)
        arrays = dict(read_arrays(path).items())
        edit(arrays)
        path.write_bytes(pack_arrays(arrays))
        return path

    def assert_fails_at_open(self, root, match):
        for open_view in (lambda: GoFSPartitionView(root, 0), lambda: GoFS.partition_views(root)):
            with pytest.raises(ValueError, match=match) as excinfo:
                open_view()
            assert str(root / rows_filename(0, 0)) in str(excinfo.value)
        GoFSPartitionView(root, 1)  # another bin's rows file: still opens

    def test_a_missing_rows_file(self, tmp_path):
        numeric_store(tmp_path)
        (tmp_path / rows_filename(0, 0)).unlink()
        self.assert_fails_at_open(tmp_path, "cannot be read")

    def test_rows_of_the_wrong_type(self, tmp_path):
        numeric_store(tmp_path)

        def edit(arrays):
            arrays["edge_rows"] = arrays["edge_rows"].astype(np.int32)

        self.rewrite_rows(tmp_path, edit)
        self.assert_fails_at_open(tmp_path, "edge_rows is not strictly increasing int64 rows")

    def test_unsorted_rows(self, tmp_path):
        """Row plans are resolved once against the bin's rows, through an
        index addressed by them: rows out of order must not open."""
        numeric_store(tmp_path)

        def edit(arrays):
            arrays["vertex_rows"] = arrays["vertex_rows"][::-1]

        self.rewrite_rows(tmp_path, edit)
        self.assert_fails_at_open(tmp_path, "vertex_rows is not strictly increasing")

    @pytest.mark.parametrize("shift", [-100, 100])
    def test_rows_outside_the_template(self, tmp_path, shift):
        """Still sorted, but not template rows: the view's row index is
        addressed by them, and a negative one would wrap to another row."""
        numeric_store(tmp_path)

        def edit(arrays):
            arrays["edge_rows"] = arrays["edge_rows"] + shift

        self.rewrite_rows(tmp_path, edit)
        self.assert_fails_at_open(tmp_path, r"edge_rows is not .* rows in \[0, 5\)")

    def test_a_slice_that_repeats_the_rows(self, tmp_path):
        """A format-3 slice (rows stored in every pack) is not a format-4 one."""
        numeric_store(tmp_path)
        rows = read_arrays(tmp_path / rows_filename(0, 0))
        self.rewrite(tmp_path, lambda arrays: arrays.update(vertex_rows=rows["vertex_rows"]))
        self.assert_fails_in_instance(tmp_path, "column vertex_rows is not in the schema")

    def test_a_pickled_column_is_refused_unread(self, tmp_path, monkeypatch):
        """A format-4 object column (a pickle entry) is an unknown kind: the
        header refuses it, and no read of a store ever unpickles."""
        numeric_store(tmp_path)
        path = tmp_path / slice_filename(self.KEY)
        blob = pickle.dumps(np.asarray([(1,), None, ()], dtype=object))
        arrays = dict(read_slice(tmp_path, self.KEY).items())
        data = pack_arrays(arrays)
        payload_at = 8 + int.from_bytes(data[4:8], "little")
        offset = len(data) - payload_at

        def add_pickle(header):
            header["arrays"].append({"name": "v__tweets", "kind": "pickle", "dtype": "object",
                                     "shape": [3], "offset": offset, "nbytes": len(blob)})

        path.write_bytes(rewrite_header(data, add_pickle) + blob)
        monkeypatch.setattr(pickle, "loads", lambda b: pytest.fail("a store read unpickled"))
        self.assert_fails_in_instance(tmp_path, "'v__tweets' has unknown kind 'pickle'")


SCHEMAS = {
    "numeric": (
        AttributeSchema([AttributeSpec("traffic", "float"), AttributeSpec("flag", "bool", True)]),
        AttributeSchema([AttributeSpec("latency", "float", 1.0), AttributeSpec("lanes", "int")]),
    ),
    "ragged": (
        AttributeSchema([AttributeSpec("tweets", "ragged"), AttributeSpec("traffic", "float")]),
        AttributeSchema([AttributeSpec("latency", "float"), AttributeSpec("tags", "ragged")]),
    ),
}


def random_populator(seed, never=(), first_only=()):
    """Sets every column at every timestep — except the names in ``never``,
    and those in ``first_only`` after timestep 0."""

    def populate(inst, t):
        rng = np.random.default_rng([seed, t])
        for table in (inst.vertex_values, inst.edge_values):
            for spec in table.schema:
                if spec.name in never or (t and spec.name in first_only):
                    continue
                if spec.ragged:
                    cells = ragged([rng.integers(0, 4, rng.integers(0, 3)).tolist() for _ in range(table.n)])
                elif spec.dtype == np.dtype(bool):
                    cells = rng.random(table.n) < 0.5
                else:
                    cells = rng.integers(-50, 50, table.n).astype(spec.dtype)
                table.set_column(spec.name, cells)

    return populate


class TestProjectionProperty:
    """The one read path, against the collection that was written."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        schema=st.sampled_from(sorted(SCHEMAS)),
        timesteps=st.integers(1, 7),
        packing=st.integers(1, 4),
        binning=st.integers(1, 3),
        data=st.data(),
    )
    def test_every_column_of_every_timestep_in_any_order(
        self, seed, schema, timesteps, packing, binning, data
    ):
        rng = np.random.default_rng(seed)
        base = make_random_template(14, 20, rng)
        vschema, eschema = SCHEMAS[schema]
        tpl = GraphTemplate(
            base.num_vertices, base.edge_src, base.edge_dst,
            vertex_schema=vschema, edge_schema=eschema,
        )
        coll = build_collection(tpl, timesteps, random_populator(seed))
        # Partition 1 is left empty; the others split into several subgraphs
        # (so several bins once ``binning`` is small).
        assignment = rng.choice([0, 2, 3], size=tpl.num_vertices)
        pg = decompose(tpl, assignment, 4)
        columns = [("v", spec) for spec in vschema] + [("e", spec) for spec in eschema]
        with tempfile.TemporaryDirectory() as root:
            GoFS.write_collection(root, pg, coll, packing=packing, binning=binning)
            for view in GoFS.partition_views(root):
                verts, edges = owned_rows(pg, view.partition_id)
                order = data.draw(st.permutations(range(timesteps)), label="timestep order")
                touched = 0
                for t in order:
                    inst = view.instance(t)
                    assert list(inst.vertex_values._columns) == []
                    assert list(inst.edge_values._columns) == []
                    assert inst.timestamp == coll.instance(t).timestamp
                    for kind, spec in data.draw(st.permutations(columns), label="column order"):
                        rows = verts if kind == "v" else edges
                        got = column_of(inst, kind, spec.name)
                        want = default_but(spec, column_of(coll.instance(t), kind, spec.name), rows)
                        assert got.dtype == spec.dtype
                        assert same_cells(got, want)
                        touched += 1
                assert view.columns_projected == touched
                assert view.projected == {f"{kind}__{spec.name}" for kind, spec in columns}

    def test_residency_and_evictions_are_the_parents(self, store):
        """The sequence of loads is the one pinned before instances went lazy
        (same store, same accesses): on a one-pack view each access to
        another pack drops the held one and reads its own.  The *bytes* are
        re-pinned per slice format: a pack of partition 0 was 3796 B when
        every column was stored; format 3 left out the never-set ``flag``
        column (9 vertices x 4 timesteps x 1 B) and the unread ``timestamps``
        entry (3 bins x 4 x 8 B); format 4 keeps the bins' rows (9 vertex and
        25 edge rows x 8 B) in the rows files, which are not pack bytes: 3392 B.
        Format 5 counted the ragged tweets exactly, where 64 B per cell (9 x 4
        x 64 B) was guessed before: 4 timesteps x (9 rows + 3 bins) offsets
        x 8 B, plus 8 B per hashtag the pack holds (1800, 1808 and 1720 B).
        Format 6 stores no offsets: a key and a value, 16 B, per hashtag."""
        root, *_ = store
        assert 3796 - 9 * 4 - 3 * 4 * 8 - (9 + 25) * 8 == 3392
        hashtags = {0: 41, 1: 42, 2: 31}  # in partition 0's tweets, per pack
        want = {k: 3392 - 9 * 4 * 64 + 16 * h for k, h in hashtags.items()}
        assert want == {0: 1744, 1: 1760, 2: 1584}
        assert {k: _one_pack_nbytes(root, 4 * k) for k in want} == want
        view = GoFSPartitionView(root, 0)
        view.attach_tracer(Tracer())
        seen = []
        timesteps = list(range(12)) + [0, 4, 8, 1]
        for t in timesteps:
            read(view.instance(t))
            seen.append(view.resident_bytes())
        assert seen == [want[t // 4] for t in timesteps]
        assert [t for t, _s in view.load_events] == [0, 4, 8, 0, 4, 8, 1]
        assert view.tracer.counters["gofs.packs_loaded"] == 7


class TestNeverSetColumns:
    """The writer stores what some instance of the pack set (slice format 3
    on), and a bin's rows once, outside its slices (format 4)."""

    def write(self, root, never=(), first_only=()):
        vschema, eschema = SCHEMAS["numeric"]
        tpl = GraphTemplate(
            6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5], vertex_schema=vschema, edge_schema=eschema
        )
        coll = build_collection(tpl, 5, random_populator(1, never, first_only))
        pg = decompose(tpl, np.asarray([0, 0, 0, 1, 1, 1]), 2)
        GoFS.write_collection(root, pg, coll, packing=2, binning=5)
        return tpl, coll, pg

    def test_never_set_column_is_listed_not_stored(self, tmp_path):
        tpl, coll, pg = self.write(tmp_path, never={"flag", "lanes"})
        for path in tmp_path.glob("slice_*.gsl"):
            header = header_of(path.read_bytes())
            assert header["defaults"] == ["e__lanes", "v__flag"]
            assert [e["name"] for e in header["arrays"]] == ["v__traffic", "e__latency"]
        inst = GoFSPartitionView(tmp_path, 0).instance(3)
        assert inst.vertex_column("flag").tolist() == [True] * 6  # the schema default
        assert inst.edge_values.take("lanes", np.arange(5)).tolist() == [0] * 5
        assert list(inst.edge_values._columns) == []
        verts, _edges = owned_rows(pg, 0)
        assert np.array_equal(
            inst.vertex_column("traffic")[verts], coll.instance(3).vertex_column("traffic")[verts]
        )

    def test_column_set_in_one_instance_is_stored_for_that_pack_only(self, tmp_path):
        tpl, coll, pg = self.write(tmp_path, first_only={"lanes"})
        for p in range(2):
            for k in range(3):
                header = header_of((tmp_path / slice_filename(SliceKey(p, 0, k))).read_bytes())
                assert header["defaults"] == ([] if k == 0 else ["e__lanes"])
                assert ("e__lanes" in [e["name"] for e in header["arrays"]]) == (k == 0)
        view = GoFSPartitionView(tmp_path, 0)
        _verts, edges = owned_rows(pg, 0)
        for t in range(5):  # timestep 1 shares pack 0: stored there, as its default
            want = coll.instance(t).edge_column("lanes")[edges]
            assert (want != 0).any() == (t == 0)
            assert np.array_equal(view.instance(t).edge_values.take("lanes", edges), want)

    def test_carn_store_holds_latency_and_rows_and_nothing_else(self, tmp_path):
        from repro.generators import paper_datasets

        ds = paper_datasets(300, 4)["CARN"]
        tpl, coll = ds["template"], ds["road"]
        assert {s.name for s in tpl.vertex_schema} | {s.name for s in tpl.edge_schema} > {"latency"}
        manifest = GoFS.write_collection(
            tmp_path, partition_graph(tpl, 2, HashPartitioner(seed=0)), coll
        )
        bins = [(p, b) for p, part in enumerate(manifest["bins"]) for b in range(len(part))]
        assert sorted(p.name for p in tmp_path.glob("rows_*.gsl")) == [rows_filename(*pb) for pb in bins]
        for p, b in bins:
            header = header_of((tmp_path / rows_filename(p, b)).read_bytes())
            assert [e["name"] for e in header["arrays"]] == ["vertex_rows", "edge_rows"]
        for path in tmp_path.glob("slice_*.gsl"):
            header = header_of(path.read_bytes())
            assert [e["name"] for e in header["arrays"]] == ["e__latency"]
            assert sorted(header["defaults"]) == sorted(
                [f"v__{s.name}" for s in tpl.vertex_schema]
                + [f"e__{s.name}" for s in tpl.edge_schema if s.name != "latency"]
            )


class TestLocate:
    """``locate`` answers a subgraph's rows in place, from the pack; any other
    rows, and a column the pack does not store, come back assembled."""

    def test_a_subgraphs_rows_are_located_in_the_pack(self, store):
        root, _tpl, coll, pg, manifest = store
        view = GoFSPartitionView(root, 0)
        view.attach_tracer(Tracer())
        want_bytes = 0
        for sg in pg.partitions[0].subgraphs:
            b = next(b for b, sgids in enumerate(manifest["bins"][0]) if sg.subgraph_id in sgids)
            for t in (1, 6):
                table = view.instance(t).edge_values
                matrix = view._pack[b]["e__latency"]
                for rows in (sg.edge_index, sg.remote.edge_index):
                    if not len(rows):
                        continue
                    values, index = table.locate("latency", rows)
                    assert index is not None and not values.flags.writeable
                    assert np.shares_memory(values, matrix)
                    taken = table.take("latency", rows)
                    assert values[index].tobytes() == taken.tobytes()
                    assert taken.tobytes() == coll.instance(t).edge_column("latency")[rows].tobytes()
                    want_bytes += 2 * 8 * len(rows)  # a locate counts what a take counts
                assert list(table._columns) == []
        assert view.tracer.counters["gofs.bytes_projected"] == view.bytes_projected == want_bytes
        # A ragged column's row cannot write into the held pack either: its
        # values are the pack's, read-only, and its owners the timestep's
        # keys made zero-based, a fresh array.
        tweets, index = view.instance(6).vertex_values.locate("tweets", sg.vertices)
        assert index is not None and isinstance(tweets, Ragged)
        assert not tweets.values.flags.writeable
        assert not any(np.shares_memory(tweets.owners, arrays["v__tweets"]) for arrays in view._pack)
        assert view.columns_projected == view.tracer.counters["gofs.columns_projected"]

    def test_rows_across_bins_or_partitions_are_assembled(self, store):
        root, tpl, coll, pg, manifest = store
        view = GoFSPartitionView(root, 0)
        first, last = (pg.subgraphs[sgids[0]] for sgids in (manifest["bins"][0][0], manifest["bins"][0][-1]))
        foreign = pg.partitions[1].subgraphs[0]
        table = view.instance(2).vertex_values
        assert table.locate("traffic", first.vertices)[1] is not None
        for rows in (
            np.concatenate((first.vertices, last.vertices)),
            np.concatenate((first.vertices, foreign.vertices)),
        ):
            values, index = table.locate("traffic", rows)
            assert index is None and values.flags.writeable
            assert values.tobytes() == table.take("traffic", rows).tobytes()
            assert values.tobytes() == view.instance(2).vertex_column("traffic")[rows].tobytes()

    def test_a_column_listed_under_defaults_is_assembled(self, tmp_path):
        vschema, eschema = SCHEMAS["numeric"]
        tpl = GraphTemplate(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5], vertex_schema=vschema, edge_schema=eschema)
        coll = build_collection(tpl, 3, random_populator(1, never={"lanes"}))
        pg = decompose(tpl, np.asarray([0, 0, 0, 1, 1, 1]), 2)
        GoFS.write_collection(tmp_path, pg, coll, packing=2, binning=5)
        table = GoFSPartitionView(tmp_path, 0).instance(1).edge_values
        sg = pg.partitions[0].subgraphs[0]
        values, index = table.locate("lanes", sg.edge_index)
        assert index is None and values.tolist() == [0] * len(sg.edge_index)
        values, index = table.locate("latency", sg.edge_index)  # stored: in place
        assert index is not None and not values.flags.writeable


class TestTakeProperty:
    """``take`` never builds the column, and reads exactly what it would hold."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        schema=st.sampled_from(sorted(SCHEMAS)),
        timesteps=st.integers(1, 7),
        packing=st.integers(1, 4),
        binning=st.integers(1, 3),
        data=st.data(),
    )
    def test_take_equals_indexing_the_column(
        self, seed, schema, timesteps, packing, binning, data
    ):
        rng = np.random.default_rng(seed)
        base = make_random_template(14, 20, rng)
        vschema, eschema = SCHEMAS[schema]
        tpl = GraphTemplate(
            base.num_vertices, base.edge_src, base.edge_dst,
            vertex_schema=vschema, edge_schema=eschema,
        )
        columns = [("v", spec) for spec in vschema] + [("e", spec) for spec in eschema]
        names = [spec.name for _kind, spec in columns]
        never = data.draw(st.sets(st.sampled_from(names)), label="never set")
        first_only = data.draw(st.sets(st.sampled_from(names)), label="set at t=0 only")
        coll = build_collection(tpl, timesteps, random_populator(seed, never, first_only))
        # Partition 1 is left empty; the others split into several subgraphs
        # (so several bins once ``binning`` is small).
        pg = decompose(tpl, rng.choice([0, 2, 3], size=tpl.num_vertices), 4)

        def check(inst, t, kind, spec, rows):
            """take == column[rows] == the collection on owned rows, default elsewhere."""
            table = inst.vertex_values if kind == "v" else inst.edge_values
            got = table.take(spec.name, rows)
            assert list(table._columns) == []
            assert got.dtype == spec.dtype
            assert (got.n if spec.ragged else len(got)) == len(rows)
            whole = column_of(view.instance(t), kind, spec.name)
            assert same_cells(got, rows_of(whole, rows))
            owned = owned_rows(pg, view.partition_id)[0 if kind == "v" else 1]
            want = default_but(spec, column_of(coll.instance(t), kind, spec.name), owned)
            assert same_cells(got, rows_of(want, rows))

        with tempfile.TemporaryDirectory() as root:
            GoFS.write_collection(root, pg, coll, packing=packing, binning=binning)
            for view in GoFS.partition_views(root):
                subgraphs = pg.partitions[view.partition_id].subgraphs
                row_arrays = {
                    "v": [sg.vertices for sg in subgraphs],
                    "e": [a for sg in subgraphs for a in (sg.edge_index, sg.remote.edge_index)],
                }
                held = []
                for t in data.draw(st.permutations(range(timesteps)), label="timestep order"):
                    inst = view.instance(t)
                    held.append((t, inst))
                    for kind, spec in data.draw(st.permutations(columns), label="column order"):
                        n = tpl.num_vertices if kind == "v" else tpl.num_edges
                        anywhere = data.draw(  # owned, foreign, repeated, or none at all
                            st.lists(st.integers(0, n - 1), max_size=2 * n), label="rows"
                        )
                        for rows in [np.asarray(anywhere, dtype=np.int64)] + row_arrays[kind]:
                            check(inst, t, kind, spec, rows)
                            check(inst, t, kind, spec, rows)  # again: the plan is cached now
                # Instances outlive the view dropping their pack and
                # pickle to plain tables holding the same values.
                for t, inst in held:
                    for kind, spec in columns:
                        for rows in row_arrays[kind]:
                            check(inst, t, kind, spec, rows)
                    clone = pickle.loads(pickle.dumps(inst))  # (materializes inst, too)
                    for kind, spec in columns:
                        for rows in row_arrays[kind]:
                            assert same_cells(
                                rows_of(column_of(clone, kind, spec.name), rows),
                                rows_of(column_of(inst, kind, spec.name), rows),
                            )

    def test_rows_outside_the_template_are_an_index_error(self, store):
        root, tpl, *_ = store
        inst = GoFSPartitionView(root, 0).instance(0)
        for rows in ([tpl.num_edges], [-1]):
            with pytest.raises(IndexError):
                inst.edge_values.take("latency", np.asarray(rows))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_any_form_of_row_array_reads_what_the_column_holds(self, seed, data):
        """Through the direct-address index, at binning 1 (one bin per
        subgraph): duplicate, unsorted rows spread over bins and over other
        partitions' rows (defaults), as int64 / int32 / uint8 / list /
        non-contiguous arrays and the empty one; -1 and n are refused, not
        wrapped to the last row."""
        rng = np.random.default_rng(seed)
        tpl = make_random_template(14, 20, rng)
        coll = build_collection(tpl, 3, populate_random(seed))
        pg = decompose(tpl, rng.integers(0, 2, size=tpl.num_vertices), 2)
        with tempfile.TemporaryDirectory() as root:
            GoFS.write_collection(root, pg, coll, packing=2, binning=1)
            view = GoFSPartitionView(root, 0)
            assert view._num_bins == len(pg.partitions[0].subgraphs)
            t = data.draw(st.integers(0, 2), label="timestep")
            inst = view.instance(t)
            for kind, name, table, schema in (
                ("v", "traffic", inst.vertex_values, tpl.vertex_schema),
                ("e", "latency", inst.edge_values, tpl.edge_schema),
            ):
                n = table.n
                want = schema[name].allocate(n)
                owned = owned_rows(pg, 0)[0 if kind == "v" else 1]
                want[owned] = column_of(coll.instance(t), kind, name)[owned]
                whole = column_of(view.instance(t), kind, name)
                assert np.array_equal(whole, want)
                rows = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n), label="rows")
                i64 = np.asarray(rows, dtype=np.int64)
                forms = [i64, i64.astype(np.int32), i64.astype(np.uint8), np.repeat(i64, 2)[::2]]
                assert not forms[-1].flags.c_contiguous or i64.size < 2
                if rows:
                    forms.append(rows)  # (an empty list is a float array: not row numbers)
                for form in forms:
                    got = table.take(name, form)
                    assert got.dtype == want.dtype and np.array_equal(got, want[i64])
                assert table.take(name, i64[:0]).shape == (0,)
                assert list(table._columns) == []
                for bad in ([-1], [n], [0, n], np.asarray([-1], dtype=np.int32)):
                    with pytest.raises(IndexError):
                        table.take(name, bad)

    def test_a_reused_row_array_is_resolved_once_and_the_cache_is_bounded(self, store, monkeypatch):
        root, _tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 0)
        resolved = []  # one `_row_index` call per plan resolution (a `_plans` miss)
        real = GoFSPartitionView._row_index
        monkeypatch.setattr(
            GoFSPartitionView, "_row_index", lambda v, side: resolved.append(side) or real(v, side)
        )
        sg = pg.partitions[0].subgraphs[-1]  # (in the last bin)
        for t in [*range(12), 0, 4]:  # 12 timesteps, then back: 3 + 2 pack loads
            got = view.instance(t).edge_values.take("latency", sg.edge_index)
            assert np.array_equal(got, coll.instance(t).edge_column("latency")[sg.edge_index])
            index = view._index["e"]
        assert len(view.load_events) == 5
        # One plan for the one row array, one index for the one side asked for.
        assert resolved == ["e"] and list(view._index) == ["e"]
        assert index.dtype == np.int32 and index.shape == (coll.template.num_edges,)
        view.instance(0).edge_values.take("latency", sg.remote.edge_index)
        view.instance(7).vertex_values.take("traffic", sg.vertices)
        assert resolved == ["e", "e", "v"] and list(view._index) == ["e", "v"]
        assert view._index["e"] is index  # built once per view and side, kept across packs
        for _ in range(10 * view._plan_cap):  # fresh arrays every call: resolved each time ...
            view.instance(0).edge_values.take("latency", sg.edge_index.copy())
        assert len(view._plans) <= view._plan_cap  # ... and never piling up


class TestReadOnFirstUse:
    """A pack's slice headers are read and checked at its first instance; its
    bytes at the first row any of its instances reads, once, and never when
    none does (:class:`TestLoadErrorsSurfaceInInstance` pins that every
    header error still fails in ``instance()``)."""

    def test_an_instance_never_read_reads_no_pack(self, store):
        root, *_ = store
        view = GoFSPartitionView(root, 0)
        view.attach_tracer(Tracer())
        for t in range(12):
            view.instance(t)
        assert view.load_events == []
        assert view.resident_bytes() == 0
        assert "gofs.packs_loaded" not in view.tracer.counters
        assert view.drain_load() == 0.0

    def test_a_mid_pack_first_read_loads_the_pack_once_there(self, store):
        root, *_ = store
        view = GoFSPartitionView(root, 0)
        view.attach_tracer(Tracer())
        first = view.instance(4)
        read(view.instance(6))
        assert [t for t, _s in view.load_events] == [6]
        loads = [e for e in view.tracer.records if e["kind"] == "slice_load"]
        assert [(e["timestep"], e["pack"]) for e in loads] == [(6, 1)]
        assert view.tracer.counters["gofs.packs_loaded"] == 1
        assert view.drain_load() == view.load_events[0][1]
        one = view.resident_bytes()
        assert one > 0
        # Earlier and later instances of the pack read nothing more.
        read(first)
        read(view.instance(7))
        assert len(view.load_events) == 1 and view.tracer.counters["gofs.packs_loaded"] == 1
        assert view.drain_load() == 0.0
        assert view.resident_bytes() == one

    def test_a_header_only_pack_evicted_before_its_first_read(self, store):
        root, _tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 0)
        old = view.instance(2)
        view.instance(5)  # pack 0 dropped with nothing read
        assert view._pack.pack == 1
        verts, edges = owned_rows(pg, 0)
        want = coll.instance(2)
        assert np.array_equal(old.edge_column("latency")[edges], want.edge_column("latency")[edges])
        assert old.vertex_column("tweets").take(verts).equals(want.vertex_column("tweets").take(verts))
        assert [t for t, _s in view.load_events] == [2]
        assert view.resident_bytes() == 0  # the read pack is not the held one

    def test_a_read_after_reload_instance_records_nothing(self, store):
        root, _tpl, coll, pg, _ = store
        view = GoFSPartitionView(root, 0)
        view.attach_tracer(Tracer())
        inst = view.reload_instance(9)  # returns before anything is read
        _verts, edges = owned_rows(pg, 0)
        assert np.array_equal(
            inst.edge_column("latency")[edges], coll.instance(9).edge_column("latency")[edges]
        )
        assert view.load_events == [] and view.drain_load() == 0.0
        assert "gofs.packs_loaded" not in view.tracer.counters
        read(view.instance(10))  # the committed instance finds the pack read
        assert view.load_events == [] and view.resident_bytes() > 0

    @pytest.fixture(scope="class")
    def carn(self):
        from repro.generators import paper_datasets

        ds = paper_datasets(2000, 20)["CARN"]
        return ds["template"], ds["road"]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_tdsp_reads_only_the_packs_its_wave_reads(self, carn, executor, tmp_path):
        from repro.algorithms import TDSPComputation, TDSPFrontier, tdsp_labels_from_result
        from repro.core import EngineConfig, run_application

        tpl, coll = carn
        k, packing = 6, 5
        pg = partition_graph(tpl, k)
        GoFS.write_collection(tmp_path, pg, coll, packing=packing)
        # Which (partition, pack) pairs project a row, seen from driver-side
        # views of a serial run: bytes_projected grew inside the timestep.
        views = GoFS.partition_views(tmp_path)
        began = [[] for _ in views]
        for view, log in zip(views, began):
            def instance(t, view=view, log=log, real=view.instance):
                log.append(view.bytes_projected)
                return real(t)
            view.instance = instance
        run_application(TDSPComputation(0), pg, coll, sources=views)
        projected = {
            (p, t // packing)
            for p, (view, log) in enumerate(zip(views, began))
            for t, before in enumerate(log)
            if (log[t + 1] if t + 1 < len(log) else view.bytes_projected) > before
        }
        result = run_application(
            TDSPComputation(0), pg, coll, sources=GoFS.partition_views(tmp_path),
            config=EngineConfig(executor=executor, tracing=True),
        )
        loads = [e for e in result.trace.event_records() if e["kind"] == "slice_load"]
        pairs = [(e["partition"], e["pack"]) for e in loads]
        assert result.trace.counters["gofs.packs_loaded"] == len(pairs) == len(set(pairs))
        assert set(pairs) == projected
        # Fewer than one load per partition per pack of the timesteps run (18 here).
        assert len(projected) < k * -(-result.timesteps_executed // packing)
        first = {}
        for t, sgid, rec in result.outputs:
            if isinstance(rec, TDSPFrontier):
                first.setdefault(pg.subgraphs[sgid].partition_id, t)
        for e in loads:
            assert e["timestep"] >= first[e["partition"]], (e, first)
        in_memory = run_application(TDSPComputation(0), pg, coll)
        n = tpl.num_vertices
        assert (
            tdsp_labels_from_result(result, n).tobytes()
            == tdsp_labels_from_result(in_memory, n).tobytes()
        )


def test_tdsp_projects_only_latency_and_only_where_the_wave_is(tmp_path):
    """Exact GoFS projection counts of a TDSP run on CARN 2000 x 10.

    Counts, not timings, so they repeat to the digit: TDSP takes one edge
    attribute, at a subgraph's local and remote edge slots, and only in the
    timesteps the wave is inside that subgraph -- at most 8 B per slot per
    timestep wherever the slot lives, strictly less when the wave needs more
    than one timestep to reach a partition, nothing before a partition's
    first frontier -- and no vertex column.  A view reads a pack's bytes only
    where its compute reads a row: one load per (partition, pack) whose
    bytes_projected grew, fewer at k=6 than one per partition per pack.
    """
    from repro.algorithms import TDSPComputation, tdsp_labels_from_result
    from repro.core import EngineConfig, run_application
    from repro.generators import paper_datasets

    ds = paper_datasets(2000, 10)["CARN"]
    tpl, coll = ds["template"], ds["road"]
    labels = {}
    for k in (2, 6):
        pg = partition_graph(tpl, k)
        slots = sum(len(sg.edge_index) + len(sg.remote.edge_index) for sg in pg.subgraphs)
        GoFS.write_collection(tmp_path / f"projection-store-{k}", pg, coll, packing=5)
        views = GoFS.partition_views(tmp_path / f"projection-store-{k}")
        began_with = [[] for _ in views]  # bytes projected when timestep t began
        for view, log in zip(views, began_with):
            def instance(t, view=view, log=log, real=view.instance):
                log.append(view.bytes_projected)
                return real(t)
            view.instance = instance
        result = run_application(
            TDSPComputation(0), pg, coll, sources=views,
            config=EngineConfig(tracing=True),
        )
        counters = result.trace.counters
        T = result.timesteps_executed
        got, columns = counters["gofs.bytes_projected"], counters["gofs.columns_projected"]
        first = {}
        for t, sgid, _rec in result.outputs:
            first.setdefault(pg.subgraphs[sgid].partition_id, t)
        assert max(first.values()) > 0, f"the wave reaches every partition at once: {first}"
        assert 0 < got < 8 * T * slots, f"{got} B gathered, bound {8 * T * slots} (k={k})"
        assert 0 < columns < 2 * T * pg.num_subgraphs, counters
        for p, log in enumerate(began_with):
            assert log[first[p]] == 0, (
                f"partition {p} read {log[first[p]]} B before its first frontier at t={first[p]}"
            )
        read = {
            (p, t // 5)
            for p, (view, log) in enumerate(zip(views, began_with))
            for t, before in enumerate(log)
            if (log[t + 1] if t + 1 < len(log) else view.bytes_projected) > before
        }
        assert counters["gofs.packs_loaded"] == len(read), (
            counters["gofs.packs_loaded"], sorted(read)
        )
        assert k == 2 or len(read) < k * -(-T // 5), (
            f"k={k}: every partition read every pack: {sorted(read)}"
        )
        touched = sorted(set().union(*(v.projected for v in views)))
        assert touched == ["e__latency"], f"projected {touched}; TDSP reads only latency"
        labels[k] = tdsp_labels_from_result(result, tpl.num_vertices).tobytes()
    assert labels[2] == labels[6], "k changed the result"


class TestRaggedRoundTrip:
    """A random ragged vertex column over 2 bins x 2 packs reads back as
    written through ``locate``, ``take`` and ``column`` on every instance —
    a timestep whose rows are all empty, and a pack that never sets it."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_every_read_returns_the_written_column(self, seed):
        # Two paths per partition: two subgraphs, one bin each at binning=1.
        src, dst = [0, 1, 3, 4, 6, 7, 9, 10, 2], [1, 2, 4, 5, 7, 8, 10, 11, 6]
        tpl = GraphTemplate(
            12, np.asarray(src), np.asarray(dst),
            vertex_schema=AttributeSchema([AttributeSpec("tweets", "ragged")]),
            edge_schema=AttributeSchema([AttributeSpec("latency", "float")]),
        )
        pg = decompose(tpl, np.repeat([0, 1], 6), 2)

        def populate(inst, t):
            if t < 2:  # timestep 1 sets every row empty; pack 1 sets nothing
                r = np.random.default_rng(seed)
                cells = [r.integers(0, 5, r.integers(0, 4)).tolist() if t == 0 else [] for _ in range(12)]
                inst.vertex_values.set_column("tweets", ragged(cells))

        coll = build_collection(tpl, 4, populate)
        with tempfile.TemporaryDirectory() as root:
            manifest = GoFS.write_collection(root, pg, coll, packing=2, binning=1)
            assert [len(bins) for bins in manifest["bins"]] == [2, 2]
            assert "v__tweets" in read_slice(root, SliceKey(0, 0, 1)).defaults
            for p, part in enumerate(pg.partitions):
                view = GoFSPartitionView(root, p)
                owned = np.concatenate([sg.vertices for sg in part.subgraphs])
                for t in range(4):
                    want = coll.instance(t).vertex_column("tweets")
                    table = view.instance(t).vertex_values
                    for rows in [sg.vertices for sg in part.subgraphs] + [owned, owned[::-1].copy()]:
                        values, index = table.locate("tweets", rows)
                        got = values if index is None else values.take(index)
                        assert got.equals(want.take(rows))
                        assert table.take("tweets", rows).equals(want.take(rows))
                    spec = tpl.vertex_schema["tweets"]
                    assert table.column("tweets").equals(default_but(spec, want, owned))


class TestRaggedColumnsAreCheckedOnRead:
    """A slice's ragged keys are outside input: the pack read checks them,
    so a bad one is a ``ValueError`` naming the ``.gsl`` file, never an
    ``IndexError`` or a wrong row inside a kernel."""

    KEY = SliceKey(0, 0, 1)  # the pack of timesteps 4-7

    @staticmethod
    def unsorted(arrays, _bound):
        keys = arrays["v__tweets"]
        assert keys[0] != keys[-1]
        arrays["v__tweets"] = keys[::-1].copy()

    @staticmethod
    def past(arrays, bound):
        arrays["v__tweets"][-1] = bound  # one past pack_len x |bin rows| - 1

    @staticmethod
    def short(arrays, _bound):
        arrays["v__tweets.values"] = arrays["v__tweets.values"][:-1].copy()

    @pytest.mark.parametrize("spoil", ["unsorted", "past", "short"])
    def test_bad_keys_fail_the_row_read(self, store, spoil):
        root, _tpl, _coll, pg, _ = store
        data = read_slice(root, self.KEY)
        arrays = {name: data[name].copy() for name in data}
        view = GoFSPartitionView(root, 0)
        getattr(self, spoil)(arrays, 4 * view._bin_rows[0][0].size)
        path = root / slice_filename(self.KEY)
        path.write_bytes(pack_arrays(arrays, defaults=data.defaults))
        inst = view.instance(5)  # the header is fine
        with pytest.raises(ValueError, match=r"never decrease, lie in \[0, ") as excinfo:
            inst.vertex_values.take("tweets", pg.partitions[0].subgraphs[0].vertices)
        assert str(path) in str(excinfo.value) and "v__tweets" in str(excinfo.value)
        read(view.instance(1))  # another pack still reads


def test_a_meme_stores_resident_bytes_are_its_slices_payload(tmp_path):
    """The GC model's input is exact: a held pack weighs what its slices'
    arrays hold, the ragged tweets included."""
    from repro.generators import smallworld_network, tweet_collection

    tpl = smallworld_network(600, seed=3)
    coll = tweet_collection(tpl, 6, hit_probability=0.2, seeds_per_meme=20, seed=3)
    pg = partition_graph(tpl, 2, HashPartitioner(seed=3))
    manifest = GoFS.write_collection(tmp_path, pg, coll, packing=3)
    for p, bins in enumerate(manifest["bins"]):
        view = GoFSPartitionView(tmp_path, p)
        for pack in (0, 1):
            view.instance(3 * pack).vertex_column("tweets")
            payload = sum(
                arr.nbytes
                for b in range(len(bins))
                for arr in read_arrays(tmp_path / slice_filename(SliceKey(p, b, pack))).values()
            )
            assert "v__tweets.values" in read_slice(tmp_path, SliceKey(p, 0, pack))
            assert view.resident_bytes() == payload > 0
