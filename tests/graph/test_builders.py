"""Unit tests for GraphTemplateBuilder and build_collection."""

import numpy as np
import pytest

from repro.graph import GraphTemplateBuilder, build_collection
from repro.graph.attributes import AttributeSpec


class TestBuilder:
    def test_incremental_build(self):
        b = GraphTemplateBuilder(name="toy")
        assert b.add_vertex("a") == 0
        assert b.add_vertex("b") == 1
        assert b.add_vertex("c") == 2
        assert b.add_edge("a", "b") == 0
        assert b.add_edge("b", "c") == 1
        tpl = b.build()
        assert tpl.num_vertices == 3 and tpl.num_edges == 2
        assert tpl.name == "toy"

    def test_auto_keys(self):
        b = GraphTemplateBuilder()
        assert b.add_vertex() == 0
        assert b.add_vertex() == 1
        b.add_edge(0, 1)
        assert b.build().num_edges == 1

    def test_duplicate_vertex_key(self):
        b = GraphTemplateBuilder()
        b.add_vertex("a")
        with pytest.raises(ValueError, match="duplicate vertex"):
            b.add_vertex("a")

    def test_unknown_edge_endpoint(self):
        b = GraphTemplateBuilder()
        b.add_vertex("a")
        with pytest.raises(KeyError, match="unknown vertex"):
            b.add_edge("a", "b")

    def test_duplicate_edge_undirected(self):
        b = GraphTemplateBuilder()
        b.add_vertex("a")
        b.add_vertex("b")
        b.add_edge("a", "b")
        with pytest.raises(ValueError, match="duplicate edge"):
            b.add_edge("b", "a")  # reversed counts as duplicate when undirected

    def test_duplicate_edge_directed_allowed_in_reverse(self):
        b = GraphTemplateBuilder(directed=True)
        b.add_vertex("a")
        b.add_vertex("b")
        b.add_edge("a", "b")
        b.add_edge("b", "a")  # fine: different directed edge
        assert b.build().num_edges == 2

    def test_allow_duplicate_flag(self):
        b = GraphTemplateBuilder()
        b.add_vertex("a")
        b.add_vertex("b")
        b.add_edge("a", "b")
        b.add_edge("a", "b", allow_duplicate=True)
        assert b.build().num_edges == 2

    def test_external_ids(self):
        b = GraphTemplateBuilder()
        b.add_vertex("a", external_id=100)
        b.add_vertex("b", external_id=200)
        b.add_edge("a", "b", external_id=7)
        tpl = b.build()
        assert np.array_equal(tpl.vertex_ids, [100, 200])
        assert np.array_equal(tpl.edge_ids, [7])

    def test_schema_chaining(self):
        b = GraphTemplateBuilder().edge_attribute("w", "int")
        b.vertex_schema.add(AttributeSpec("v", "float", default=1.0))
        b.add_vertex("a")
        tpl = b.build()
        assert "v" in tpl.vertex_schema
        assert tpl.vertex_schema["v"].default == 1.0
        assert "w" in tpl.edge_schema

    def test_vertex_index(self):
        b = GraphTemplateBuilder()
        b.add_vertex("x")
        b.add_vertex("y")
        assert b.vertex_index("y") == 1


class TestBuildCollection:
    def make_template(self):
        b = GraphTemplateBuilder()
        b.vertex_schema.add(AttributeSpec("v", "float"))
        b.add_vertex("a")
        b.add_vertex("b")
        b.add_edge("a", "b")
        return b.build()

    def test_eager_populate(self):
        tpl = self.make_template()

        def pop(inst, t):
            inst.vertex_values.set_column("v", np.full(2, float(t)))

        coll = build_collection(tpl, 3, pop, t0=1.0, delta=0.5)
        assert len(coll) == 3
        assert coll.instance(2).vertex("v", 0) == 2.0
        assert coll.instance(1).timestamp == 1.5

    def test_lazy_populate_called_on_access(self):
        tpl = self.make_template()
        calls = []

        def pop(inst, t):
            calls.append(t)

        coll = build_collection(tpl, 3, pop, lazy=True)
        assert calls == []
        coll.instance(1)
        assert calls == [1]

    def test_no_populator(self):
        tpl = self.make_template()
        coll = build_collection(tpl, 2)
        assert coll.instance(0).vertex("v", 0) == 0.0
