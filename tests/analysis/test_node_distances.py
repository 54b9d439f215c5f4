"""Unit tests for the per-source node distances behind the cost matrices."""

import numpy as np

from repro.analysis.costs import request_distance_matrix
from repro.graphs import dijkstra, grid_graph, random_geometric_graph
from repro.spanning import mst_prim
from repro.spanning.tree import SpanningTree


def test_tree_node_distances_weighted():
    tree = SpanningTree([0, 0, 1], root=0, edge_weights=[0.0, 2.0, 3.0])
    assert tree.distances_from(2).tolist() == [5.0, 3.0, 0.0]


def test_tree_node_distances_match_lca_queries():
    g = random_geometric_graph(20, 0.4, seed=6, euclidean_weights=True)
    tree = mst_prim(g, 0)
    nodes = np.array([0, 5, 11, 5, 19])
    D = request_distance_matrix(tree, nodes)
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            assert D[i, j] == tree.distance(int(u), int(v))


def test_graph_node_distances_match_dijkstra():
    """``d_G`` rows equal Dijkstra's on the unit grid (BFS branch) and on a
    Euclidean geometric graph (the Dijkstra branch no shipped grid takes)."""
    unit = grid_graph(3, 5)
    weighted = random_geometric_graph(20, 0.4, seed=6, euclidean_weights=True)
    assert unit.is_unit_weighted() and not weighted.is_unit_weighted()
    for g, nodes in ((unit, [0, 14, 7, 0]), (weighted, [0, 5, 11, 5, 19])):
        D = request_distance_matrix(g, np.array(nodes))
        for i, src in enumerate(nodes):
            want = dijkstra(g, src)[0]
            assert D[i].tolist() == [want[v] for v in nodes]
