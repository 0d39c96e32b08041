"""Tests for the CARN-like and WIKI-like template generators."""

import numpy as np
import pytest

from repro.algorithms.reference import bfs_levels, weakly_connected_components
from repro.generators import (
    grid_dimensions,
    preferential_attachment_edges,
    road_network,
    smallworld_network,
)


def assert_ids_unique(tpl):
    """The generator numbers its vertices and edges without repeats."""
    assert np.unique(tpl.vertex_ids).size == tpl.num_vertices
    assert np.unique(tpl.edge_ids).size == tpl.num_edges


class TestGridDimensions:
    def test_approximate_count(self):
        w, h = grid_dimensions(10_000, aspect=4.0)
        assert 10_000 <= w * h <= 11_000
        assert h / w > 2.0

    def test_minimum(self):
        w, h = grid_dimensions(1)
        assert w >= 2 and h >= 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            grid_dimensions(0)


class TestRoadNetwork:
    def test_structure_matches_carn_regime(self):
        tpl = road_network(5000, seed=1)
        assert_ids_unique(tpl)
        stats = tpl.stats()
        assert 2.4 < stats["avg_degree"] < 3.2  # CARN ≈ 2.8
        assert stats["max_degree"] <= 4  # grid-bounded

    def test_connected(self):
        tpl = road_network(2000, seed=3)
        labels = weakly_connected_components(tpl)
        assert np.all(labels == 0)

    def test_large_diameter(self):
        tpl = road_network(2000, seed=1)
        d = bfs_levels(tpl, 0)
        assert np.nanmax(d[np.isfinite(d)]) > 50

    def test_deterministic(self):
        a, b = road_network(1000, seed=7), road_network(1000, seed=7)
        assert a.equals(b)
        c = road_network(1000, seed=8)
        assert not a.equals(c)

    def test_vertical_keep_bounds(self):
        with pytest.raises(ValueError):
            road_network(100, vertical_keep=1.5)

    def test_vertical_keep_controls_degree(self):
        sparse = road_network(2000, seed=1, vertical_keep=0.1)
        dense = road_network(2000, seed=1, vertical_keep=0.9)
        assert sparse.stats()["avg_degree"] < dense.stats()["avg_degree"]

    def test_default_schemas(self):
        tpl = road_network(100, seed=0)
        assert "latency" in tpl.edge_schema
        assert "traffic" in tpl.vertex_schema


class TestSmallWorldNetwork:
    def test_structure_matches_wiki_regime(self):
        tpl = smallworld_network(3000, seed=1)
        assert_ids_unique(tpl)
        assert tpl.directed
        stats = tpl.stats()
        # Heavy tail: max degree far above the mean.
        assert stats["max_degree"] > 8 * stats["avg_degree"]

    def test_small_diameter(self):
        tpl = smallworld_network(3000, seed=1)
        # Undirected view BFS from a hub-ish vertex: eccentricity is tiny.
        from repro.graph import GraphTemplate

        und = GraphTemplate(tpl.num_vertices, tpl.edge_src, tpl.edge_dst, directed=False)
        d = bfs_levels(und, 0)
        assert np.nanmax(d[np.isfinite(d)]) <= 12

    def test_weakly_connected(self):
        tpl = smallworld_network(1000, seed=2)
        labels = weakly_connected_components(tpl)
        assert np.all(labels == 0)

    def test_deterministic(self):
        a = smallworld_network(500, seed=9)
        b = smallworld_network(500, seed=9)
        assert a.equals(b)

    def test_undirected_option(self):
        tpl = smallworld_network(500, seed=1, directed=False)
        assert not tpl.directed

    def test_reciprocal_fraction_adds_edges(self):
        no_rec = smallworld_network(500, seed=1, reciprocal_fraction=0.0)
        with_rec = smallworld_network(500, seed=1, reciprocal_fraction=0.5)
        assert with_rec.num_edges > no_rec.num_edges

    def test_pa_edges_invalid_params(self):
        with pytest.raises(ValueError):
            preferential_attachment_edges(2, 2, np.random.default_rng(0))

    def test_pa_every_vertex_has_m_attachments(self):
        src, dst = preferential_attachment_edges(50, 2, np.random.default_rng(0))
        for v in range(3, 50):
            assert np.count_nonzero(src == v) == 2
