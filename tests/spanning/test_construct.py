"""Unit tests for spanning-tree constructions (networkx MST as oracle)."""

import hashlib
import random

import networkx as nx
import pytest

from repro.errors import GraphError, TreeError
from repro.graphs import (
    complete_graph,
    dijkstra,
    grid_graph,
    random_geometric_graph,
)
from repro.graphs.generators import gnp_connected_graph, hypercube_graph
from repro.graphs.graph import Graph
from repro.spanning import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
)
from repro.spanning.construct import star_overlay
from repro.spanning.tree import SpanningTree


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_weighted_edges_from(g.edges())
    return G


def tree_weight(t):
    return sum(w for _, _, w in t.edges())


@pytest.fixture
def weighted_graph():
    return random_geometric_graph(30, 0.35, seed=4, euclidean_weights=True)


def test_mst_prim_matches_networkx_weight(weighted_graph):
    ours = tree_weight(mst_prim(weighted_graph, 0))
    theirs = nx.minimum_spanning_tree(to_nx(weighted_graph)).size(weight="weight")
    assert ours == pytest.approx(theirs)


def test_mst_on_disconnected_raises():
    g = Graph(4)
    g.add_edge(0, 1)
    with pytest.raises(GraphError):
        mst_prim(g, 0)


def test_bfs_tree_preserves_root_distances():
    g = grid_graph(5, 5)
    t = bfs_tree(g, 12)
    from repro.graphs.shortest_paths import bfs_distances

    oracle = bfs_distances(g, 12)
    for v in range(25):
        assert t.distance(12, v) == oracle[v]


def test_bfs_tree_disconnected_raises():
    g = Graph(3)
    g.add_edge(0, 1)
    with pytest.raises(GraphError):
        bfs_tree(g, 0)


def test_balanced_overlay_depth_is_logarithmic():
    g = complete_graph(31)
    t = balanced_binary_overlay(g, root=0)
    assert max(t.depth) == 4  # log2(32) - 1


def test_balanced_overlay_respects_root():
    g = complete_graph(8)
    t = balanced_binary_overlay(g, root=5)
    assert t.root == 5
    assert t.depth[5] == 0


def test_balanced_overlay_requires_edges():
    from repro.graphs.generators import path_graph

    with pytest.raises(TreeError):
        balanced_binary_overlay(path_graph(7), root=0)


def test_star_overlay():
    g = complete_graph(6)
    t = star_overlay(g, center=2)
    assert t.root == 2
    assert all(t.distance(2, v) == 1 for v in range(6) if v != 2)
    from repro.graphs.generators import path_graph

    with pytest.raises(TreeError):
        star_overlay(path_graph(5), center=0)


def test_random_spanning_tree_valid_and_deterministic():
    g = grid_graph(5, 5)
    t1 = random_spanning_tree(g, 0, seed=9)
    t2 = random_spanning_tree(g, 0, seed=9)
    assert t1.parent == t2.parent
    # Every tree edge must be a graph edge.
    for u, v, _ in t1.edges():
        assert g.has_edge(u, v)


def test_random_spanning_trees_vary_with_seed():
    g = grid_graph(5, 5)
    trees = {tuple(random_spanning_tree(g, 0, seed=s).parent) for s in range(6)}
    assert len(trees) > 1


#: SHA-256 of ``repr(parent)`` for Wilson's trees on the mixed grid's
#: graphs, seeds 0-4 x roots 0 and 7 (the gnp graph drawn with the same
#: seed), recorded before the walk's draws moved to ``DrawStream``: the
#: replay must pick the same neighbour at every step.
WILSON_DIGESTS = {
    "complete-24": "cde498967dac58c26aaa38f8dcbd105b1864190f72b8a417bbff47a1ec72a575",
    "grid-5x5": "982d4a48be898c0f217eb68f6e6ea54c67c0be88e9308eb3f107c19d2986f6cb",
    "hypercube-5": "5cb0b962c09a328784588d8c8330190f6307bf61f740a0ac5c29a9c190d2a6f3",
    "gnp-24-0.3": "97e9992d8f5f6012e24c2cd4eed65d2f40ac1d88ac83489bc864bc915cd87154",
}
WILSON_GRAPHS = {
    "complete-24": lambda seed: complete_graph(24),
    "grid-5x5": lambda seed: grid_graph(5, 5),
    "hypercube-5": lambda seed: hypercube_graph(5),
    "gnp-24-0.3": lambda seed: gnp_connected_graph(24, 0.3, seed=seed),
}


@pytest.mark.parametrize("graph", sorted(WILSON_DIGESTS))
def test_random_spanning_trees_are_pinned(graph):
    h = hashlib.sha256()
    for seed in range(5):
        g = WILSON_GRAPHS[graph](seed)
        for root in (0, 7):
            h.update(repr(list(random_spanning_tree(g, root, seed=seed).parent)).encode())
    assert h.hexdigest() == WILSON_DIGESTS[graph]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("root", [0, 11])
def test_bfs_tree_is_from_edges_of_the_dijkstra_edges(seed, root):
    """Dijkstra's predecessor array is the tree: ``from_edges`` (adjacency
    rebuild + second BFS) stays here as the reference."""
    topo = gnp_connected_graph(25, 0.2, seed=seed)
    rng = random.Random(seed)
    g = Graph(topo.num_nodes)
    for u, v, _ in topo.edges():
        g.add_edge(u, v, rng.choice([0.5, 1.0, 1.0, 2.25, 4]))
    _, pred = dijkstra(g, root)
    ref = SpanningTree.from_edges(
        g.num_nodes,
        [(v, pred[v], g.weight(v, pred[v])) for v in g.nodes() if v != root],
        root,
    )
    t = bfs_tree(g, root)
    assert t.root == ref.root == root
    for field in ("parent", "children", "depth", "wdepth", "edge_weight"):
        assert getattr(t, field) == getattr(ref, field), field
    assert t.edges() == ref.edges()
    assert {type(w) for w in t.edge_weight} == {float}
    # The caller-visible Dijkstra contract (-1 at the source) is untouched.
    assert dijkstra(g, root)[1][root] == -1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bfs_tree_on_unit_weights_is_the_dijkstra_tree(seed):
    """The unit-weight branch (level walk) builds Dijkstra's tree."""
    g = gnp_connected_graph(30, 0.15, seed=seed)
    for root in g.nodes():
        dist, pred = dijkstra(g, root)
        pred[root] = root
        t = bfs_tree(g, root)
        assert t.parent == pred
        assert t.depth == [int(d) for d in dist]


def test_bfs_tree_single_node():
    t = bfs_tree(Graph(1), 0)
    assert t.parent == [0] and t.edge_weight == [0.0] and t.depth == [0]
