"""Unit tests for shortest paths vs networkx oracles."""

import math
import random

import networkx as nx
import pytest

from repro.graphs import (
    dijkstra,
    grid_graph,
    random_geometric_graph,
)
from repro.graphs.generators import gnp_connected_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import (
    bfs_distances,
    bfs_predecessors,
    connected_components,
    is_connected,
)
from tree_oracles import all_pairs_distances


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_weighted_edges_from(g.edges())
    return G


def test_bfs_distances_on_path():
    g = path_graph(6)
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 4, 5]


def test_bfs_unreachable_is_inf():
    g = Graph(3)
    g.add_edge(0, 1)
    assert math.isinf(bfs_distances(g, 0)[2])


def test_dijkstra_matches_networkx_weighted():
    g = random_geometric_graph(25, 0.35, seed=2, euclidean_weights=True)
    G = to_nx(g)
    dist, _ = dijkstra(g, 0)
    want = nx.single_source_dijkstra_path_length(G, 0)
    for v in range(25):
        assert dist[v] == pytest.approx(want[v])


def _shuffled_unit_graph(seed):
    """A unit-weight graph whose rows are filled in a random order, so a
    BFS that followed row order instead of node ids would show."""
    rng = random.Random(seed)
    n, p = rng.randint(1, 30), rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    return Graph.from_columns(n, [u for u, _ in pairs], [v for _, v in pairs], 1.0)


@pytest.mark.parametrize("seed", range(0, 300, 5))
def test_bfs_predecessors_equal_dijkstra_on_unit_weights(seed):
    """Dijkstra pops unit-weight nodes in ``(dist, id)`` order; the level
    walk must reproduce its ``(dist, pred)`` exactly, from every source
    (disconnected samples included: ``inf`` / ``-1`` where unreached)."""
    g = _shuffled_unit_graph(seed)
    for source in g.nodes():
        assert bfs_predecessors(g, source) == dijkstra(g, source)


def test_single_source_dispatches_by_weights():
    # A row of the oracle is one single-source run: BFS while the graph is
    # unit-weighted, Dijkstra once an edge weighs anything else.
    g = path_graph(4)
    assert list(all_pairs_distances(g)[0]) == [0, 1, 2, 3]
    g.add_edge(0, 3, 0.5)
    assert all_pairs_distances(g)[0, 3] == 0.5


def test_all_pairs_matrix_symmetric_and_correct():
    g = grid_graph(3, 4)
    M = all_pairs_distances(g)
    G = to_nx(g)
    want = dict(nx.all_pairs_shortest_path_length(G))
    for u in range(12):
        for v in range(12):
            assert M[u, v] == want[u][v]
            assert M[u, v] == M[v, u]


def test_connected_components():
    g = Graph(5)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    comps = connected_components(g)
    assert sorted(map(tuple, comps)) == [(0, 1), (2, 3), (4,)]
    assert not is_connected(g)


def test_eccentricity_and_diameter():
    M = all_pairs_distances(path_graph(7))
    assert M[0].max() == 6
    assert M[3].max() == 3
    assert M.max() == 6


def test_diameter_matches_networkx_on_random_graph():
    g = gnp_connected_graph(20, 0.2, seed=11)
    assert all_pairs_distances(g).max() == nx.diameter(to_nx(g))
