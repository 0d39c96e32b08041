"""Unit tests for GraphInstance value storage and soft topology."""

import numpy as np
import pytest

from repro.graph import (
    IS_EXISTS,
    AttributeSchema,
    AttributeSpec,
    GraphInstance,
    GraphTemplate,
)


def template_with(vertex_attrs=(), edge_attrs=()):
    return GraphTemplate(
        4,
        [0, 1, 2],
        [1, 2, 3],
        vertex_schema=AttributeSchema(vertex_attrs),
        edge_schema=AttributeSchema(edge_attrs),
    )


class TestBasics:
    def test_default_tables(self):
        tpl = template_with([("v", "float")], [("w", "float")])
        inst = GraphInstance(tpl, 3.0)
        assert inst.timestamp == 3.0
        assert inst.vertex_values.n == 4
        assert inst.edge_values.n == 3

    def test_accessors(self):
        tpl = template_with([("v", "float")], [("w", "float")])
        inst = GraphInstance(tpl, 0.0)
        inst.vertex_values.set("v", 1, 7.0)
        inst.edge_values.set("w", 2, 9.0)
        assert inst.vertex("v", 1) == 7.0
        assert inst.edge_values.get("w", 2) == 9.0
        assert np.array_equal(inst.vertex_column("v"), [0, 7.0, 0, 0])
        assert np.array_equal(inst.edge_column("w"), [0, 0, 9.0])

    def test_row_count_mismatch(self):
        tpl = template_with([("v", "float")])
        bad = tpl.vertex_schema.create_table(3)
        with pytest.raises(ValueError, match="vertex_values"):
            GraphInstance(tpl, 0.0, vertex_values=bad)

    def test_edge_row_count_mismatch(self):
        tpl = template_with(edge_attrs=[("w", "float")])
        bad = tpl.edge_schema.create_table(2)
        with pytest.raises(ValueError, match="edge_values"):
            GraphInstance(tpl, 0.0, edge_values=bad)

    def test_copy_shares_template_not_values(self):
        tpl = template_with([("v", "float")])
        inst = GraphInstance(tpl, 1.0)
        inst.vertex_values.set("v", 0, 5.0)
        dup = inst.copy()
        dup.vertex_values.set("v", 0, 6.0)
        assert inst.vertex("v", 0) == 5.0
        assert dup.template is tpl

    def test_equals(self):
        tpl = template_with([("v", "float")])
        a, b = GraphInstance(tpl, 1.0), GraphInstance(tpl, 1.0)
        assert a.equals(b)
        b.vertex_values.set("v", 0, 1.0)
        assert not a.equals(b)
        assert not a.equals(GraphInstance(tpl, 2.0))


class TestExistsMasks:
    def test_vertex_is_exists(self):
        tpl = template_with([AttributeSpec(IS_EXISTS, "bool", default=True)])
        inst = GraphInstance(tpl, 0.0)
        assert inst.vertex_column(IS_EXISTS).all()
        inst.vertex_values.set(IS_EXISTS, 2, False)
        mask = inst.vertex_column(IS_EXISTS)
        assert not mask[2] and mask[[0, 1, 3]].all()

    def test_edge_is_exists(self):
        tpl = template_with(edge_attrs=[AttributeSpec(IS_EXISTS, "bool", default=True)])
        inst = GraphInstance(tpl, 0.0)
        inst.edge_values.set(IS_EXISTS, 0, False)
        mask = inst.edge_column(IS_EXISTS)
        assert not mask[0] and mask[1:].all()
