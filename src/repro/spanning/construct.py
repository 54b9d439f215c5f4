"""Spanning-tree constructions.

The choice of spanning tree determines the stretch ``s`` and diameter ``D``
that appear in the paper's competitive ratio ``O(s log D)``.  This module
provides the constructions discussed in §1.1:

* **minimum spanning tree** (Demmer–Herlihy's suggestion) — Prim's
  algorithm, implemented from scratch;
* **BFS / shortest-path tree** — small depth from a chosen root;
* **balanced binary overlay tree** — the tree the paper's own experiments
  use on the complete SP2 graph (§5);
* **random spanning tree** (Wilson's loop-erased random walk) — used by the
  test-suite to exercise the protocol on unstructured trees;
* **star overlay** — degenerate comparison point (centralized-like shape).
"""

from __future__ import annotations

import heapq
import math

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.validation import tree_link_weights
from repro.spanning.tree import SpanningTree
from repro.sim.rng import DrawStream, spawn_rng

__all__ = [
    "mst_prim",
    "bfs_tree",
    "balanced_binary_overlay",
    "star_overlay",
    "random_spanning_tree",
]


def mst_prim(graph: Graph, root: int = 0) -> SpanningTree:
    """Minimum spanning tree by Prim's algorithm, rooted at ``root``."""
    n = graph.num_nodes
    in_tree = [False] * n
    parent = [-1] * n
    weight_to = [float("inf")] * n
    parent[root] = root
    weight_to[root] = 0.0
    heap: list[tuple[float, int, int]] = [(0.0, root, root)]
    edges: list[tuple[int, int, float]] = []
    while heap:
        w, u, par = heapq.heappop(heap)
        if in_tree[u]:
            continue
        in_tree[u] = True
        parent[u] = par
        if u != root:
            edges.append((u, par, w))
        for v, wv in graph.neighbor_weights(u):
            if not in_tree[v] and wv < weight_to[v]:
                weight_to[v] = wv
                heapq.heappush(heap, (wv, v, u))
    if not all(in_tree):
        raise GraphError("graph is disconnected; no spanning tree exists")
    return SpanningTree.from_edges(n, edges, root)


def bfs_tree(graph: Graph, root: int = 0) -> SpanningTree:
    """Shortest-path tree from ``root`` (Dijkstra; BFS on unit weights).

    Guarantees ``d_T(root, v) = d_G(root, v)`` for every ``v``, hence tree
    diameter at most twice the graph's eccentricity of the root.
    """
    from repro.graphs.shortest_paths import bfs_predecessors, dijkstra

    if graph.is_unit_weighted():
        dist, pred = bfs_predecessors(graph, root)
    else:
        dist, pred = dijkstra(graph, root)
    if math.inf in dist:
        raise GraphError("graph is disconnected; no spanning tree exists")
    # The predecessor array already is the rooted tree's parent array; the
    # links are every other node and its predecessor.
    links = list(graph.nodes())
    del links[root]
    ups = pred[:]
    del ups[root]
    weights = graph.edge_weights(links, ups)
    weights.insert(root, 0.0)
    pred[root] = root
    return SpanningTree(pred, root, weights)


def balanced_binary_overlay(graph: Graph, root: int = 0) -> SpanningTree:
    """Balanced binary tree overlay over the nodes of a complete graph.

    This reproduces the paper's experimental setup (§5): on a network where
    every pair is directly connected with equal latency, pick a perfectly
    balanced binary tree of depth ``log2 n`` as the arrow spanning tree.
    Node ids are assigned in heap order starting from ``root``.

    Raises :class:`TreeError` if some required overlay edge is missing from
    the graph (i.e. the graph is not complete enough to host the overlay).
    """
    n = graph.num_nodes
    # Heap-order permutation placing `root` at position 0.
    order = [root] + [v for v in graph.nodes() if v != root]
    us = order[1:]
    ps = [order[(i - 1) // 2] for i in range(1, n)]
    weights = tree_link_weights(
        graph,
        us,
        ps,
        "balanced overlay needs edge ({u}, {v}) which is absent; "
        "use a complete graph or a BFS/MST tree instead",
    )
    return SpanningTree.from_edges(n, zip(us, ps, weights), root)


def star_overlay(graph: Graph, center: int = 0) -> SpanningTree:
    """Star spanning tree centred at ``center`` (requires those edges)."""
    n = graph.num_nodes
    leaves = [v for v in graph.nodes() if v != center]
    centers = [center] * len(leaves)
    weights = tree_link_weights(
        graph, leaves, centers, "star overlay needs edge ({u}, {v})"
    )
    return SpanningTree.from_edges(n, zip(leaves, centers, weights), center)


def random_spanning_tree(graph: Graph, root: int = 0, seed: int = 0) -> SpanningTree:
    """Uniform random spanning tree via Wilson's loop-erased random walk.

    Weights on the chosen edges are inherited from the graph.  Uniformity
    holds for unweighted sampling (the walk ignores weights) — exactly what
    the tests need: unbiased random tree shapes.
    """
    n = graph.num_nodes
    pick = DrawStream(spawn_rng(seed, f"wilson-{n}")).integers
    in_tree = [False] * n
    parent = [-1] * n
    in_tree[root] = True
    parent[root] = root
    nbrs = [list(graph.neighbors(u)) for u in range(n)]
    for start in range(n):
        if in_tree[start]:
            continue
        # Random walk from `start` until hitting the tree, recording the
        # successor of each visited node (loop erasure by overwrite).
        u = start
        while not in_tree[u]:
            if not nbrs[u]:
                raise GraphError("graph is disconnected; no spanning tree exists")
            nxt = nbrs[u][pick(len(nbrs[u]))]
            parent[u] = nxt
            u = nxt
        # Retrace the erased walk and attach it to the tree.
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = parent[u]
    links = [v for v in range(n) if v != root]
    parents = [parent[v] for v in links]
    weights = graph.edge_weights(links, parents)
    return SpanningTree.from_edges(n, zip(links, parents, weights), root)
