"""Unit tests for tree quality metrics: stretch and diameter."""

import networkx as nx
import pytest

from repro.graphs import (
    complete_graph,
    random_geometric_graph,
)
from repro.graphs.generators import cycle_graph, path_graph
from repro.spanning import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    tree_diameter,
    tree_stretch,
)
from repro.spanning.construct import star_overlay
from repro.spanning.tree import SpanningTree
from tree_oracles import tree_stretch_brute_force


def test_stretch_of_path_in_itself_is_one():
    g = path_graph(8)
    t = SpanningTree([max(0, i - 1) for i in range(8)], root=0)
    assert tree_stretch(g, t).stretch == 1.0


def test_stretch_of_cycle_spanning_path():
    # Dropping one edge of C_n forces stretch n-1 across that edge.
    g = cycle_graph(8)
    t = SpanningTree([max(0, i - 1) for i in range(8)], root=0)
    rep = tree_stretch(g, t)
    assert rep.stretch == 7.0
    assert sorted(rep.witness) == [0, 7]


def test_stretch_edge_scan_matches_brute_force():
    for seed in range(3):
        g = random_geometric_graph(25, 0.35, seed=seed)
        t = mst_prim(g, 0)
        assert tree_stretch(g, t).stretch == pytest.approx(
            tree_stretch_brute_force(g, t)
        )


def test_stretch_detects_foreign_tree_edges():
    from repro.errors import TreeError

    g = path_graph(4)
    bad = SpanningTree([0, 0, 0, 0], root=0)  # star edges not in the path
    with pytest.raises(TreeError):
        tree_stretch(g, bad)


def test_star_overlay_stretch_on_complete_graph():
    g = complete_graph(10)
    t = star_overlay(g, 0)
    assert tree_stretch(g, t).stretch == 2.0  # leaf-to-leaf via centre


def test_balanced_overlay_stretch_equals_leaf_pair_depth():
    g = complete_graph(15)
    t = balanced_binary_overlay(g, 0)
    assert tree_stretch(g, t).stretch == tree_diameter(t)


def test_diameter_of_chain_and_star():
    chain = SpanningTree([max(0, i - 1) for i in range(9)], root=0)
    assert tree_diameter(chain) == 8.0
    star = SpanningTree([0] + [0] * 8, root=0)
    assert tree_diameter(star) == 2.0


def test_diameter_matches_networkx_on_random_trees():
    for seed in range(3):
        g = random_geometric_graph(30, 0.3, seed=seed)
        t = bfs_tree(g, 0)
        G = nx.Graph()
        G.add_nodes_from(range(30))
        G.add_edges_from((u, v) for u, v, _ in t.edges())
        assert tree_diameter(t) == nx.diameter(G)


def test_weighted_diameter():
    t = SpanningTree([0, 0, 1], root=0, edge_weights=[0, 2.0, 5.0])
    assert tree_diameter(t) == 7.0


def test_weighted_diameter_is_the_largest_pairwise_distance():
    for seed in range(3):
        g = random_geometric_graph(25, 0.35, seed=seed, euclidean_weights=True)
        for root in (0, 7):
            t = mst_prim(g, root)
            n = t.num_nodes
            assert tree_diameter(t) == max(
                t.distance(u, v) for u in range(n) for v in range(n)
            )
