"""Unit tests for topology generators (networkx as independent oracle)."""

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graphs import (
    complete_graph,
    grid_graph,
    hypercube_graph,
    random_geometric_graph,
)
from repro.graphs.generators import (
    balanced_binary_tree_graph,
    caterpillar_graph,
    cycle_graph,
    gnp_connected_graph,
    lollipop_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import is_connected
from tree_oracles import graph_degree, is_tree


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_weighted_edges_from(g.edges())
    return G


def test_path_graph_shape():
    g = path_graph(5)
    assert g.num_edges == 4
    assert is_tree(g)
    assert graph_degree(g, 0) == 1 and graph_degree(g, 2) == 2


def test_cycle_graph_shape():
    g = cycle_graph(6)
    assert g.num_edges == 6
    assert all(graph_degree(g, v) == 2 for v in g.nodes())
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_star_graph_shape():
    g = star_graph(7)
    assert graph_degree(g, 0) == 6
    assert is_tree(g)


def test_complete_graph_shape():
    g = complete_graph(8)
    assert g.num_edges == 8 * 7 // 2
    assert all(graph_degree(g, v) == 7 for v in g.nodes())


def test_balanced_binary_tree_depth():
    g = balanced_binary_tree_graph(15)
    assert is_tree(g)
    # Heap layout: node 14's ancestors are 6, 2, 0 -> depth 3 = log2(15+1)-1.
    assert g.has_edge(14, 6) and g.has_edge(6, 2) and g.has_edge(2, 0)


def test_grid_graph_matches_networkx():
    g = grid_graph(4, 5)
    G = to_nx(g)
    H = nx.grid_2d_graph(4, 5)
    assert G.number_of_edges() == H.number_of_edges()
    assert is_connected(g)
    with pytest.raises(GraphError):
        grid_graph(0, 3)


def test_torus_graph_is_4_regular():
    g = torus_graph(4, 5)
    assert all(graph_degree(g, v) == 4 for v in g.nodes())
    with pytest.raises(GraphError):
        torus_graph(2, 5)


def test_hypercube_matches_networkx():
    g = hypercube_graph(4)
    H = nx.hypercube_graph(4)
    assert g.num_nodes == 16
    assert g.num_edges == H.number_of_edges()
    assert all(graph_degree(g, v) == 4 for v in g.nodes())
    with pytest.raises(GraphError):
        hypercube_graph(0)


def test_random_geometric_connected_and_deterministic():
    g1 = random_geometric_graph(30, 0.25, seed=5)
    g2 = random_geometric_graph(30, 0.25, seed=5)
    assert is_connected(g1)
    assert sorted(g1.edges()) == sorted(g2.edges())


def test_random_geometric_euclidean_weights():
    g = random_geometric_graph(20, 0.4, seed=1, euclidean_weights=True)
    assert all(0 < w <= 2.0**0.5 + 1e-9 for _, _, w in g.edges())


def test_gnp_connected():
    g = gnp_connected_graph(25, 0.2, seed=3)
    assert is_connected(g)
    with pytest.raises(GraphError):
        gnp_connected_graph(10, 0.0)


def test_caterpillar_shape():
    g = caterpillar_graph(4, 2)
    assert g.num_nodes == 12
    assert is_tree(g)


def test_lollipop_shape():
    g = lollipop_graph(5, 3)
    assert g.num_nodes == 8
    assert g.num_edges == 10 + 3
    assert is_connected(g)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("weight", [1.0, 2.5, 3])
def test_complete_graph_is_the_nested_add_edge_graph(n, weight):
    """Rows are written directly; the add_edge loop stays here as the reference."""
    ref = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            ref.add_edge(u, v, weight)
    g = complete_graph(n, weight)
    assert g.num_nodes == n and g.num_edges == ref.num_edges == n * (n - 1) // 2
    assert list(g.edges()) == list(ref.edges())
    for u in range(n):
        assert list(g.neighbors(u)) == list(ref.neighbors(u))
        assert list(g.neighbor_weights(u)) == list(ref.neighbor_weights(u))
        assert {type(w) for _, w in g.neighbor_weights(u)} <= {float}
    # The rows are independent dicts: editing one edge leaves the rest alone.
    if n > 2:
        g.add_edge(0, 1, 9.0)
        assert g.weight(0, 1) == g.weight(1, 0) == 9.0
        assert g.weight(0, 2) == g.weight(1, 2) == float(weight)
        assert g.num_edges == ref.num_edges


def test_complete_graph_errors_unchanged():
    with pytest.raises(GraphError, match="at least one node"):
        complete_graph(0)
    with pytest.raises(GraphError, match="at least one node"):
        complete_graph(-3)
    for weight in (0.0, -1.0):
        with pytest.raises(GraphError, match="edge weight must be positive"):
            complete_graph(4, weight)
    # K1 has no edge to carry the bad weight (as with the add_edge loop).
    assert complete_graph(1, 0.0).num_edges == 0
