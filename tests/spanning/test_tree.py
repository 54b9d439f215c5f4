"""Unit tests for SpanningTree: structure, LCA distances, paths."""

import pytest

from repro.errors import TreeError
from repro.graphs import random_geometric_graph
from repro.graphs.shortest_paths import bfs_distances
from repro.spanning import mst_prim
from repro.spanning.tree import SpanningTree
from small_models import rerooted, tree_graph
from tree_oracles import degree, hop_distance, neighbors, tree_path


def chain_tree(n, root=0):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=root)


def test_parent_array_validation_root_self():
    with pytest.raises(TreeError):
        SpanningTree([1, 1, 1], root=0)  # parent[0] != 0


def test_parent_array_cycle_detected():
    with pytest.raises(TreeError):
        SpanningTree([0, 2, 1], root=0)  # 1 <-> 2 cycle


def test_non_root_self_parent_detected():
    with pytest.raises(TreeError):
        SpanningTree([0, 1, 0], root=0)  # node 1 its own parent


def test_depths_on_chain():
    t = chain_tree(5)
    assert t.depth == [0, 1, 2, 3, 4]
    assert t.wdepth == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_lca_and_distance_on_binary_tree():
    # heap-shaped tree on 7 nodes
    t = SpanningTree([0, 0, 0, 1, 1, 2, 2], root=0)
    assert t.lca(3, 4) == 1
    assert t.lca(3, 5) == 0
    assert t.lca(3, 3) == 3
    assert t.distance(3, 4) == 2
    assert t.distance(3, 5) == 4
    assert hop_distance(t, 6, 3) == 4


def test_distance_matches_bfs_oracle_on_random_tree():
    g = random_geometric_graph(40, 0.3, seed=7)
    t = mst_prim(g, 0)
    tg = tree_graph(t)
    for src in (0, 7, 23):
        oracle = bfs_distances(tg, src)
        for v in range(40):
            assert hop_distance(t, src, v) == oracle[v]


def test_weighted_distance():
    t = SpanningTree([0, 0, 1], root=0, edge_weights=[0.0, 2.0, 3.0])
    assert t.distance(0, 2) == 5.0
    assert hop_distance(t, 0, 2) == 2


def test_path_endpoints_and_adjacency():
    t = chain_tree(6)
    p = tree_path(t, 5, 1)
    assert p == [5, 4, 3, 2, 1]
    t2 = SpanningTree([0, 0, 0, 1, 1, 2, 2], root=0)
    assert tree_path(t2, 3, 6) == [3, 1, 0, 2, 6]


def test_neighbors_and_degree():
    t = SpanningTree([0, 0, 0, 1], root=0)
    assert sorted(neighbors(t, 0)) == [1, 2]
    assert sorted(neighbors(t, 1)) == [0, 3]
    assert degree(t, 0) == 2 and degree(t, 3) == 1


def test_from_edges_roundtrip():
    t = SpanningTree.from_edges(4, [(0, 1), (1, 2), (2, 3)], root=2)
    assert t.root == 2
    assert t.distance(0, 3) == 3


def test_from_edges_wrong_count():
    with pytest.raises(TreeError):
        SpanningTree.from_edges(4, [(0, 1)], root=0)


def test_from_edges_disconnected():
    with pytest.raises(TreeError):
        SpanningTree.from_edges(4, [(0, 1), (0, 1), (2, 3)], root=0)


def test_reroot_preserves_distances():
    t = chain_tree(6)
    r = rerooted(t, 3)
    assert r.root == 3
    for u in range(6):
        for v in range(6):
            assert t.distance(u, v) == r.distance(u, v)


def test_to_graph_roundtrip():
    t = chain_tree(5)
    g = tree_graph(t)
    assert g.num_edges == 4
    t2 = SpanningTree.from_edges(g.num_nodes, g.edges(), root=0)
    assert t2.parent == t.parent


def test_single_node_tree():
    t = SpanningTree([0], root=0)
    assert t.distance(0, 0) == 0.0
    assert tree_path(t, 0, 0) == [0]
