"""Unit tests for the Graph data structure."""

import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph
from tree_oracles import graph_degree


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        Graph(0)


def test_add_edge_and_query():
    g = Graph(3)
    g.add_edge(0, 1, 2.5)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.weight(0, 1) == 2.5
    assert g.num_edges == 1


def test_readding_edge_overwrites_weight():
    g = Graph(2)
    g.add_edge(0, 1, 1.0)
    g.add_edge(0, 1, 3.0)
    assert g.weight(0, 1) == 3.0
    assert g.num_edges == 1


def test_self_loop_rejected():
    g = Graph(2)
    with pytest.raises(GraphError):
        g.add_edge(1, 1)


def test_nonpositive_weight_rejected():
    g = Graph(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 1, 0.0)


def test_out_of_range_node_rejected():
    g = Graph(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 5)


def test_missing_edge_weight_raises():
    g = Graph(3)
    with pytest.raises(GraphError):
        g.weight(0, 2)


def test_neighbors_and_degree():
    g = Graph(4)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    assert sorted(g.neighbors(0)) == [1, 2]
    assert graph_degree(g, 0) == 2
    assert graph_degree(g, 3) == 0


def test_neighbor_weights():
    g = Graph(3)
    g.add_edge(0, 1, 2.0)
    assert dict(g.neighbor_weights(0)) == {1: 2.0}


def test_edges_iterates_each_edge_once():
    g = Graph(4)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    edges = list(g.edges())
    assert len(edges) == 3
    assert all(u < v for u, v, _ in edges)


def test_from_edges_with_and_without_weights():
    g = Graph.from_edges(3, [(0, 1), (1, 2, 5.0)])
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 2) == 5.0


def test_is_unit_weighted():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.is_unit_weighted()
    g.add_edge(0, 2, 2.0)
    assert not g.is_unit_weighted()


def test_copy_is_deep():
    g = Graph.from_edges(3, [(0, 1)])
    h = g.copy()
    h.add_edge(1, 2)
    assert g.num_edges == 1 and h.num_edges == 2


def test_nodes_range():
    assert list(Graph(3).nodes()) == [0, 1, 2]
