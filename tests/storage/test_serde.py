"""Round-trip tests for template/schema serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import AttributeSchema, AttributeSpec, GraphTemplate
from repro.storage import load_template, save_template, schema_from_bytes, schema_to_bytes
from repro.storage.serde import GSL2_MAGIC, unpack_arrays
from tests.conftest import make_grid_template, make_random_template, pack_arrays


class TestSchemaRoundtrip:
    def test_basic(self):
        schema = AttributeSchema(
            [
                AttributeSpec("a", "float", default=1.5),
                AttributeSpec("b", "int"),
                AttributeSpec("c", "ragged"),
                AttributeSpec("d", "bool", default=True),
            ]
        )
        assert schema_from_bytes(schema_to_bytes(schema)) == schema

    def test_empty(self):
        assert schema_from_bytes(schema_to_bytes(AttributeSchema())) == AttributeSchema()

    @given(
        names=st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6), unique=True, min_size=1, max_size=5
        ),
        dtypes=st.lists(st.sampled_from(["float", "int", "bool", "ragged"]), min_size=5, max_size=5),
    )
    def test_roundtrip_random(self, names, dtypes):
        specs = [AttributeSpec(n, d) for n, d in zip(names, dtypes) if n != "id"]
        schema = AttributeSchema(specs)
        assert schema_from_bytes(schema_to_bytes(schema)) == schema


class TestTemplateRoundtrip:
    def test_grid(self, tmp_path):
        tpl = make_grid_template(4, 5, name="grid-Ünicode")
        path = tmp_path / "tpl.gsl"
        save_template(path, tpl)
        assert load_template(path).equals(tpl)
        assert load_template(path).name == "grid-Ünicode"

    def test_directed_with_ids(self, tmp_path, rng):
        tpl = make_random_template(20, 40, rng, directed=True)
        tpl.vertex_ids[:] = np.arange(20) * 7 + 3
        path = tmp_path / "t.gsl"
        save_template(path, tpl)
        out = load_template(path)
        assert out.equals(tpl)
        assert out.directed

    def test_empty_graph(self, tmp_path):
        tpl = GraphTemplate(0, [], [], name="empty")
        save_template(tmp_path / "e.gsl", tpl)
        assert load_template(tmp_path / "e.gsl").num_vertices == 0

    def test_creates_parent_dirs(self, tmp_path):
        tpl = make_grid_template(2, 2)
        path = tmp_path / "deep" / "nested" / "t.gsl"
        save_template(path, tpl)
        assert load_template(path).equals(tpl)

    def test_version_check(self, tmp_path):
        tpl = make_grid_template(2, 2)
        path = tmp_path / "t.gsl"
        save_template(path, tpl)
        # Corrupt the version field, then drop it.
        arrays = dict(unpack_arrays(path.read_bytes()).items())
        for edit in (lambda a: a.update(format_version=np.int64(99)), lambda a: a.pop("format_version")):
            edit(arrays)
            path.write_bytes(pack_arrays(arrays))
            with pytest.raises(ValueError, match=f"template {path} has unsupported format version"):
                load_template(path)

    def test_one_container_with_read_only_views(self, tmp_path):
        """The template is a GSL2 file like every slice; its arrays are
        zero-copy views over the file bytes, not copies out of a zip."""
        tpl = make_grid_template(3, 4)
        path = tmp_path / "t.gsl"
        save_template(path, tpl)
        assert path.read_bytes()[:4] == GSL2_MAGIC
        out = load_template(path)
        assert out.equals(tpl)
        assert not out.edge_src.flags.writeable and not out.vertex_ids.flags.writeable

    @pytest.mark.parametrize("damage", ["missing", "directory", "truncated", "not GSL2"])
    def test_a_bad_file_is_a_value_error_naming_it(self, tmp_path, damage):
        path = tmp_path / "t.gsl"
        save_template(path, make_grid_template(2, 2))
        if damage == "missing":
            path.unlink()
        elif damage == "directory":
            path.unlink()
            path.mkdir()
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-9])
        else:
            path.write_bytes(b"PK\x03\x04" + path.read_bytes()[4:])  # what np.savez wrote
        with pytest.raises(ValueError, match=str(path)):
            load_template(path)
