"""Unit tests for the Decomposition result type."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bfs.delayed import delayed_multisource_bfs
from repro.errors import GraphError
from repro.core.decomposition import Decomposition, PartitionTrace
from repro.graphs.build import from_edges
from repro.graphs.generators import grid_2d, path_graph
from repro.graphs.ops import count_cut_edges, cut_edge_mask
from tests.conftest import random_graphs


def make_manual_decomposition():
    """Path 0-1-2-3-4-5 split into pieces {0,1,2} (center 0), {3,4,5} (center 4)."""
    g = path_graph(6)
    center = np.asarray([0, 0, 0, 4, 4, 4])
    hops = np.asarray([0, 1, 2, 1, 0, 1])
    return g, Decomposition(graph=g, center=center, hops=hops)


class TestConstruction:
    def test_valid(self):
        _, d = make_manual_decomposition()
        assert d.num_pieces == 2
        np.testing.assert_array_equal(d.centers, [0, 4])

    def test_labels_dense_ordered_by_center(self):
        _, d = make_manual_decomposition()
        np.testing.assert_array_equal(d.labels, [0, 0, 0, 1, 1, 1])

    def test_rejects_non_fixed_point_center(self):
        g = path_graph(3)
        with pytest.raises(GraphError, match="fixed point"):
            Decomposition(
                graph=g,
                center=np.asarray([1, 2, 2]),  # center[1]=2 but center[2]=2 ok; center[0]=1 not fixed
                hops=np.zeros(3, dtype=np.int64),
            )

    def test_rejects_center_with_nonzero_hops(self):
        g = path_graph(3)
        with pytest.raises(GraphError, match="hop distance 0"):
            Decomposition(
                graph=g,
                center=np.asarray([0, 0, 0]),
                hops=np.asarray([1, 1, 2]),
            )

    def test_rejects_wrong_lengths(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            Decomposition(
                graph=g, center=np.zeros(2, dtype=np.int64), hops=np.zeros(3)
            )

    def test_rejects_negative_hops(self):
        g = path_graph(2)
        with pytest.raises(GraphError):
            Decomposition(
                graph=g,
                center=np.asarray([0, 0]),
                hops=np.asarray([0, -1]),
            )


class TestStatistics:
    def test_piece_sizes_and_members(self):
        _, d = make_manual_decomposition()
        np.testing.assert_array_equal(d.piece_sizes(), [3, 3])
        np.testing.assert_array_equal(d.piece_members(0), [0, 1, 2])
        np.testing.assert_array_equal(d.piece_members(1), [3, 4, 5])

    def test_radii(self):
        _, d = make_manual_decomposition()
        np.testing.assert_array_equal(d.radii(), [2, 1])
        assert d.max_radius() == 2

    def test_cut_edges(self):
        _, d = make_manual_decomposition()
        assert d.num_cut_edges() == 1  # the 2-3 edge
        assert d.cut_fraction() == pytest.approx(1 / 5)
        mask = d.cut_mask()
        assert mask.sum() == 1

    def test_summary_keys(self):
        _, d = make_manual_decomposition()
        s = d.summary()
        for key in (
            "num_pieces",
            "max_piece_size",
            "mean_piece_size",
            "max_radius",
            "mean_radius",
            "num_cut_edges",
            "cut_fraction",
        ):
            assert key in s

    def test_single_piece_no_cut(self):
        g = grid_2d(3, 3)
        from repro.bfs.sequential import bfs

        hops = bfs(g, 0).dist
        d = Decomposition(
            graph=g, center=np.zeros(9, dtype=np.int64), hops=hops
        )
        assert d.num_pieces == 1
        assert d.cut_fraction() == 0.0


def _sorting_summary(d: Decomposition) -> dict[str, float]:
    """``summary()`` as computed before it went sort-free: distinct centers
    by ``np.unique`` and cut edges over the canonical ``edge_array()``."""
    centers = np.unique(d.center)
    lookup = np.full(d.graph.num_vertices, -1, dtype=np.int64)
    lookup[centers] = np.arange(centers.size)
    labels = lookup[d.center]
    sizes = np.bincount(labels, minlength=centers.size)
    radii = np.zeros(centers.size, dtype=np.int64)
    np.maximum.at(radii, labels, d.hops)
    edges = d.graph.edge_array()
    cut = int((labels[edges[:, 0]] != labels[edges[:, 1]]).sum())
    m = d.graph.num_edges
    return {
        "num_pieces": float(centers.size),
        "max_piece_size": float(sizes.max()) if sizes.size else 0.0,
        "mean_piece_size": float(sizes.mean()) if sizes.size else 0.0,
        "max_radius": float(radii.max()) if radii.size else 0.0,
        "mean_radius": float(radii.mean()) if radii.size else 0.0,
        "num_cut_edges": float(cut),
        "cut_fraction": float(cut / m if m else 0.0),
    }


@settings(max_examples=80, deadline=None)
@given(
    graph=random_graphs(min_vertices=1, max_vertices=30),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 8),
)
@example(graph=from_edges(1, np.zeros((0, 2))), seed=0, spread=3)
@example(graph=from_edges(5, np.zeros((0, 2))), seed=1, spread=2)
@example(graph=from_edges(6, np.asarray([[0, 1], [1, 2]])), seed=2, spread=4)
def test_summary_equals_sorting_reference(graph, seed, spread):
    """Random graphs (isolated vertices, m = 0 and n = 1 included): the
    sort-free ``summary()`` equals the ``np.unique``/``edge_array`` one,
    and the arc-halving cut count equals the ``edge_array`` mask count."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    bfs = delayed_multisource_bfs(graph, rng.random(n) * spread)
    d = Decomposition(graph=graph, center=bfs.center, hops=bfs.hops)
    assert d.summary() == _sorting_summary(d)
    np.testing.assert_array_equal(d.centers, np.unique(d.center))
    for labels in (d.labels, rng.integers(0, 3, n)):
        expected = cut_edge_mask(graph, labels).sum()
        assert count_cut_edges(graph, labels) == expected


@pytest.mark.parametrize("shape", ["grid", "star"])
def test_count_cut_edges_across_blocks(shape):
    """Graphs spanning several arc blocks, including one row longer than a
    block, count the same as the ``edge_array`` mask."""
    if shape == "grid":
        graph = grid_2d(200, 200)
    else:
        leaves = np.arange(1, 70_001)
        graph = from_edges(
            70_001, np.stack([np.zeros_like(leaves), leaves], axis=1)
        )
    labels = np.random.default_rng(5).integers(0, 4, graph.num_vertices)
    assert count_cut_edges(graph, labels) == cut_edge_mask(graph, labels).sum()


class TestPartitionTrace:
    def test_fields(self):
        t = PartitionTrace(
            method="bfs",
            beta=0.1,
            rounds=5,
            work=100,
            depth=50,
            delta_max=12.5,
            wall_time_s=0.01,
        )
        assert t.sequential_chain == 0
        assert t.frontier_sizes == ()
        assert t.extra == {}
