"""Zero-copy GSL2 slice format: round-trips, pre-GSL2 rejection, numbers only
(a pickle entry is refused unread), eager header validation and per-array
lazy decode."""

import json
import pickle

import numpy as np
import pytest

from repro.graph import Ragged, build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.storage import (
    GoFS,
    GoFSPartitionView,
    SliceKey,
    read_slice,
    slice_filename,
    slice_nbytes,
    write_slice,
)
from repro.storage.serde import GSL2_MAGIC, unpack_arrays
from repro.storage.slices import read_rows, write_rows
from tests.conftest import make_grid_template, pack_arrays, populate_random


def sample_arrays(with_ragged=False):
    arrays = {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.linspace(0, 1, 7),
        "c": np.asarray([True, False, True]),
        "empty": np.empty((0, 5), dtype=np.float32),
    }
    if with_ragged:  # two timesteps of two rows, as a slice stores them:
        # [1, 2], [] then [7], [8, 9], each value keyed timestep * 2 + row
        arrays["tweets"] = np.asarray([0, 0, 2, 3, 3])
        arrays["tweets.values"] = np.asarray([1, 2, 7, 8, 9])
    return arrays


def pickle_entry(buf, blob):
    """``buf`` with a format-4 ``pickle`` entry named ``tweets`` holding ``blob``."""
    offset = len(buf) - 8 - len(json.dumps(header_of(buf)).encode())

    def add(header):
        header["arrays"].append({"name": "tweets", "kind": "pickle", "dtype": "object",
                                 "shape": [3], "offset": offset, "nbytes": len(blob)})

    return rewrite_header(buf, add) + blob


class TestPackArrays:
    @pytest.mark.parametrize("with_ragged", [False, True])
    def test_roundtrip(self, with_ragged):
        arrays = sample_arrays(with_ragged)
        buf = pack_arrays(arrays)
        assert buf[:4] == GSL2_MAGIC
        out = unpack_arrays(buf)
        assert set(out) == set(arrays)
        for name, arr in arrays.items():
            got = out[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()

    def test_python_objects_are_not_written(self):
        cells = np.empty(3, dtype=object)
        cells[:] = [(1, 2), None, ("x",)]
        with pytest.raises(ValueError, match="'tweets' holds Python objects"):
            pack_arrays({**sample_arrays(), "tweets": cells})

    def test_numeric_arrays_are_zero_copy_views(self):
        buf = pack_arrays(sample_arrays())
        out = unpack_arrays(buf)
        a = out["a"]
        assert not a.flags.writeable  # frombuffer view over the file bytes
        assert a.base is not None

    def test_payload_offsets_are_aligned(self):
        for entry in header_of(pack_arrays(sample_arrays()))["arrays"]:
            assert entry["offset"] % 64 == 0

    def test_a_pickle_entry_is_an_unknown_kind(self):
        buf = pickle_entry(pack_arrays(sample_arrays()), pickle.dumps([(1, 2), None, ("x",)]))
        with pytest.raises(ValueError, match="'tweets' has unknown kind 'pickle'"):
            unpack_arrays(buf)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            unpack_arrays(b"NOPE" + b"\x00" * 16)


def header_of(buf):
    """The JSON header of a GSL2 buffer."""
    return json.loads(buf[8 : 8 + int.from_bytes(buf[4:8], "little")])


def rewrite_header(buf, edit):
    """``buf`` with its JSON header passed through ``edit(header)``."""
    hlen = int.from_bytes(buf[4:8], "little")
    header = header_of(buf)
    edit(header)
    blob = json.dumps(header).encode()
    return GSL2_MAGIC + len(blob).to_bytes(4, "little") + blob + buf[8 + hlen :]


def entry_of(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


class TestLazyDecode:
    def test_nothing_is_decoded_until_asked_for(self, monkeypatch):
        decoded = []
        real = np.frombuffer
        monkeypatch.setattr(np, "frombuffer", lambda *a, **k: decoded.append(1) or real(*a, **k))
        out = unpack_arrays(pack_arrays(sample_arrays(with_ragged=True)))
        assert set(out) == {"a", "b", "c", "empty", "tweets", "tweets.values"} and len(out) == 6
        assert out.entry("tweets")["kind"] == "raw" and out.entry("a")["shape"] == [3, 4]
        assert decoded == []
        assert out["a"] is out["a"]  # decoded once, then kept
        assert decoded == [1]
        keys, values = out["tweets"], out["tweets.values"]
        assert Ragged(4, keys, values).rows(2, 4).row(1).tolist() == [8, 9]
        assert decoded == [1, 1, 1]
        with pytest.raises(KeyError):
            out["nope"]

    def test_slice_nbytes_from_header_equals_decoded_size(self):
        arrays = sample_arrays(with_ragged=True)
        out = unpack_arrays(pack_arrays(arrays))
        want = sum(a.nbytes for a in arrays.values())
        assert slice_nbytes(out) == want  # before any decode
        for name in out:
            out[name]
        assert slice_nbytes(out) == want


class TestEagerValidation:
    """Whatever decoding used to discover, ``unpack_arrays`` now checks up front."""

    def test_truncated_header(self):
        buf = pack_arrays(sample_arrays())
        with pytest.raises(ValueError, match="truncated"):
            unpack_arrays(buf[:20])

    @pytest.mark.parametrize("with_ragged", [False, True])
    def test_truncated_payload(self, with_ragged):
        buf = pack_arrays(sample_arrays(with_ragged))
        with pytest.raises(ValueError, match="payload holds"):
            unpack_arrays(buf[:-1])

    def test_truncated_compressed_payload(self):
        """A compressed header is refused, whatever its payload holds."""

        def compressed(header):
            header["compression"] = "zlib"

        buf = rewrite_header(pack_arrays(sample_arrays()), compressed)
        for payload in (buf, buf[:-3]):
            with pytest.raises(
                ValueError, match="zlib-compressed; rewrite with `GoFS.write_collection`"
            ):
                unpack_arrays(payload)

    def test_lying_nbytes(self):
        def lie(header):
            entry_of(header, "a")["nbytes"] -= 8

        with pytest.raises(ValueError, match=r"'a' records 88 bytes .* needs 96"):
            unpack_arrays(rewrite_header(pack_arrays(sample_arrays()), lie))

    def test_lying_shape(self):
        def lie(header):
            entry_of(header, "b")["shape"] = [8]

        with pytest.raises(ValueError, match="'b' records 56 bytes"):
            unpack_arrays(rewrite_header(pack_arrays(sample_arrays()), lie))

    def test_offset_past_the_payload(self):
        def lie(header):
            entry_of(header, "b")["offset"] = 1 << 20

        with pytest.raises(ValueError, match="'b' spans payload bytes"):
            unpack_arrays(rewrite_header(pack_arrays(sample_arrays()), lie))

    def test_unknown_kind(self):
        def lie(header):
            entry_of(header, "c")["kind"] = "parquet"

        with pytest.raises(ValueError, match="unknown kind 'parquet'"):
            unpack_arrays(rewrite_header(pack_arrays(sample_arrays()), lie))

    def test_strict_gate_fires_without_unpickling(self, monkeypatch):
        """Every read is strict: a pickle entry is refused from the header."""
        buf = pickle_entry(pack_arrays(sample_arrays()), pickle.dumps([(1, 2), None, ("x",)]))
        monkeypatch.setattr(pickle, "loads", lambda b: pytest.fail("a GSL2 read unpickled"))
        with pytest.raises(ValueError, match="tweets"):
            unpack_arrays(buf)


@pytest.fixture
def slice_case():
    tpl = make_grid_template(4, 5)
    coll = build_collection(tpl, 3, populate_random(7))
    pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
    sg = pg.partitions[0].subgraphs[0]
    verts = sg.vertices
    edges = np.unique(np.concatenate([sg.edge_index, sg.remote.edge_index]))
    instances = [coll.instance(t) for t in range(3)]
    return verts, edges, instances


class TestWriteReadSlice:
    def test_formats_agree(self, tmp_path, slice_case):
        verts, edges, instances = slice_case
        key = SliceKey(0, 0, 0)
        write_slice(tmp_path, key, verts, edges, instances)
        write_rows(tmp_path, 0, 0, (verts, edges))
        data = read_slice(tmp_path, key)
        assert "vertex_rows" not in data and "edge_rows" not in data  # since format 4: once per bin
        got_verts, got_edges = read_rows(tmp_path, 0, 0, (20, 31))
        assert np.array_equal(got_verts, verts) and np.array_equal(got_edges, edges)
        keys, values = data["v__tweets"], data["v__tweets.values"]
        assert keys.shape == values.shape and keys.ndim == 1 and (keys[1:] >= keys[:-1]).all()
        pack, size = Ragged(3 * len(verts), keys, values), len(verts)
        for i, inst in enumerate(instances):
            want = inst.vertex_values.column("tweets").take(verts)
            assert pack.rows(i * size, (i + 1) * size).equals(want)
            np.testing.assert_array_equal(
                data["e__latency"][i], inst.edge_values.column("latency")[edges]
            )

    def test_unknown_format_rejected(self, tmp_path):
        """A store written before GSL2 (manifest says 1, or nothing), with the
        rows in every slice (3), with pickled object columns (4), with one
        ragged offset per row (5) or by a later writer is refused at the
        manifest, before any slice is read."""
        for stale in ({"slice_format": 1}, {}, {"slice_format": 3}, {"slice_format": 4},
                      {"slice_format": 5}, {"slice_format": 7}):
            (tmp_path / "manifest.json").write_text(json.dumps({"format_version": 1, **stale}))
            with pytest.raises(
                ValueError, match="is not slice format 6; rewrite with `GoFS.write_collection`"
            ):
                GoFS.read_manifest(tmp_path)

    def test_a_format_3_store_is_refused(self, tmp_path):
        """A real format-3 store: its manifest stops every opening, before the
        missing rows files or the rows in its slices are ever looked at."""
        tpl = make_grid_template(4, 5)
        GoFS.write_collection(
            tmp_path, partition_graph(tpl, 2, HashPartitioner(seed=1)),
            build_collection(tpl, 3, populate_random(7)),
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "slice_format": 3}))
        for path in tmp_path.glob("rows_*.gsl"):
            path.unlink()
        for open_store in (GoFS.read_manifest, GoFS.partition_views, lambda r: GoFSPartitionView(r, 0)):
            with pytest.raises(ValueError, match=r"slice_format 3\) is not slice format 6"):
                open_store(tmp_path)

    def test_format_2_rejected(self, tmp_path, slice_case):
        """Format 2 stored every column and had no ``defaults``: refused at
        the manifest like v1 — and a format-2 slice (no ``defaults`` in its
        header) is malformed to the one reader, not quietly accepted."""
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format_version": 1, "slice_format": 2, "num_partitions": 1})
        )
        with pytest.raises(
            ValueError,
            match=r"slice_format 2\) is not slice format 6; rewrite with `GoFS.write_collection`",
        ):
            GoFS.read_manifest(tmp_path)
        with pytest.raises(ValueError, match="format 6"):
            GoFS.partition_views(tmp_path)
        verts, edges, instances = slice_case
        key = SliceKey(0, 0, 0)
        path = write_slice(tmp_path, key, verts, edges, instances)
        path.write_bytes(rewrite_header(path.read_bytes(), lambda header: header.pop("defaults")))
        with pytest.raises(ValueError, match="malformed.*defaults"):
            read_slice(tmp_path, key)

    def test_filename_extension_per_format(self):
        assert slice_filename(SliceKey(1, 2, 3)) == "slice_p001_b0002_k0003.gsl"

    def test_missing_slice_names_gsl_path_and_key(self, tmp_path):
        key = SliceKey(1, 2, 3)
        with pytest.raises(FileNotFoundError) as excinfo:
            read_slice(tmp_path, key)
        assert str(tmp_path / slice_filename(key)) in str(excinfo.value)
        assert repr(key) in str(excinfo.value)

    def test_malformed_slice_names_gsl_path_and_key(self, tmp_path, slice_case):
        verts, edges, instances = slice_case
        key = SliceKey(0, 0, 0)
        path = write_slice(tmp_path, key, verts, edges, instances)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="payload holds") as excinfo:
            read_slice(tmp_path, key)
        assert str(path) in str(excinfo.value) and repr(key) in str(excinfo.value)

    def test_v2_preferred_over_v1(self, tmp_path, slice_case):
        """A pre-GSL2 ``.npz`` under the old name is never consulted."""
        verts, edges, instances = slice_case
        key = SliceKey(0, 0, 0)
        np.savez(tmp_path / slice_filename(key).replace(".gsl", ".npz"), vertex_rows=verts)
        with pytest.raises(FileNotFoundError, match=r"\.gsl"):
            read_slice(tmp_path, key)
        write_slice(tmp_path, key, verts, edges, instances[:1])
        assert read_slice(tmp_path, key)["v__traffic"].shape[0] == 1


class TestTwoPhaseRead:
    """``read_slice`` reads the header; the payload is read once, on first
    use.  Every error of either phase names the ``.gsl`` path and the key."""

    KEY = SliceKey(0, 0, 0)

    def names_slice(self, path, excinfo):
        assert str(path) in str(excinfo.value) and repr(self.KEY) in str(excinfo.value)

    def test_a_header_phase_os_error_names_the_slice(self, tmp_path):
        path = tmp_path / slice_filename(self.KEY)
        path.mkdir()  # EISDIR: an OSError other than a missing file
        with pytest.raises(IsADirectoryError) as excinfo:
            read_slice(tmp_path, self.KEY)
        self.names_slice(path, excinfo)

    @pytest.mark.parametrize("error", [FileNotFoundError, IsADirectoryError])
    def test_a_payload_phase_os_error_names_the_slice(self, tmp_path, slice_case, error):
        """The header read read no payload: a slice gone after it fails the payload read."""
        verts, edges, instances = slice_case
        path = write_slice(tmp_path, self.KEY, verts, edges, instances)
        data = read_slice(tmp_path, self.KEY)
        path.unlink()
        if error is IsADirectoryError:
            path.mkdir()
        with pytest.raises(error) as excinfo:
            data["e__latency"]
        self.names_slice(path, excinfo)

    @pytest.mark.parametrize("change", [lambda b: b[:-3], lambda b: b + b"\x00" * 64])
    def test_a_payload_that_changed_under_the_run(self, tmp_path, slice_case, change):
        verts, edges, instances = slice_case
        path = write_slice(tmp_path, self.KEY, verts, edges, instances)
        data = read_slice(tmp_path, self.KEY)
        path.write_bytes(change(path.read_bytes()))
        with pytest.raises(ValueError, match="changed under the run") as excinfo:
            data.read_payload()
        self.names_slice(path, excinfo)

    def test_a_view_fails_the_read_that_finds_the_pack_changed(self, tmp_path):
        tpl = make_grid_template(4, 5)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        GoFS.write_collection(tmp_path, pg, build_collection(tpl, 3, populate_random(7)))
        inst = GoFSPartitionView(tmp_path, 0).instance(1)
        path = tmp_path / slice_filename(self.KEY)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="changed under the run") as excinfo:
            inst.edge_column("latency")
        self.names_slice(path, excinfo)


class TestGoFSFormats:
    @pytest.fixture(scope="class")
    def case(self):
        tpl = make_grid_template(5, 6)
        coll = build_collection(tpl, 6, populate_random(11))
        pg = partition_graph(tpl, 2, HashPartitioner(seed=4))
        return tpl, coll, pg

    def test_instances_identical_to_collection(self, case, tmp_path):
        tpl, coll, pg = case
        root = tmp_path
        manifest = GoFS.write_collection(root, pg, coll, packing=3, binning=2)
        assert manifest["slice_format"] == GoFS.read_manifest(root)["slice_format"] == 6
        for p in range(pg.num_partitions):
            view = GoFSPartitionView(root, p)
            for t in range(len(coll)):
                inst = view.instance(t)
                part = pg.partitions[p]
                for sg in part.subgraphs:
                    rows = sg.vertices
                    np.testing.assert_array_equal(
                        inst.vertex_column("traffic")[rows],
                        coll.instance(t).vertex_column("traffic")[rows],
                    )
                    assert inst.vertex_column("tweets").take(rows).equals(
                        coll.instance(t).vertex_column("tweets").take(rows)
                    )
