"""Topology generators.

Provides the network shapes used throughout the paper and its experiments:

* the **complete graph** with uniform weights — the SP2 testbed of Section 5
  ("the message latency between any pair of nodes ... was roughly the same,
  we could treat the network as a complete graph");
* the **path** — the lower-bound constructions of Section 4 live on a path
  realising the tree diameter;
* assorted standard families (ring, star, grid, torus, hypercube, random
  geometric, Erdős–Rényi, caterpillar, lollipop) used by the integration
  and property tests to exercise the protocol on diverse shapes.

All generators take node counts and an optional seed and return
:class:`repro.graphs.Graph`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import is_connected
from repro.sim.rng import spawn_rng

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "balanced_binary_tree_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "random_geometric_graph",
    "gnp_connected_graph",
    "caterpillar_graph",
    "lollipop_graph",
]


def path_graph(n: int, weight: float = 1.0) -> Graph:
    """Path ``0 - 1 - ... - n-1``."""
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, weight)
    return g


def cycle_graph(n: int, weight: float = 1.0) -> Graph:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    g = path_graph(n, weight)
    g.add_edge(n - 1, 0, weight)
    return g


def star_graph(n: int, weight: float = 1.0) -> Graph:
    """Star with centre 0 and ``n - 1`` leaves."""
    g = Graph(n)
    for i in range(1, n):
        g.add_edge(0, i, weight)
    return g


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    """Complete graph ``K_n`` with uniform edge weight (SP2 model, §5)."""
    g = Graph(n)
    if n > 1 and weight <= 0:
        raise GraphError(f"edge weight must be positive, got {weight}")
    # Each ascending adjacency row written whole — what n(n-1)/2 add_edge
    # calls (two node checks and two dict stores each) would leave behind.
    full_row = dict.fromkeys(range(n), float(weight))
    for u, row in enumerate(g._adj):
        row.update(full_row)
        del row[u]
    g._num_edges = n * (n - 1) // 2
    return g


def balanced_binary_tree_graph(n: int, weight: float = 1.0) -> Graph:
    """Complete binary tree on ``n`` nodes in heap layout (depth ⌈log2 n⌉).

    Node ``i`` has children ``2i+1`` and ``2i+2``.  This is the overlay the
    paper's experiments use as the arrow spanning tree ("a perfectly
    balanced binary tree (log2 n depth for n nodes)").
    """
    g = Graph(n)
    for i in range(1, n):
        g.add_edge(i, (i - 1) // 2, weight)
    return g


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> Graph:
    """``rows x cols`` 2-D mesh; node ``(r, c)`` is ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1, weight)
            if r + 1 < rows:
                g.add_edge(u, u + cols, weight)
    return g


def torus_graph(rows: int, cols: int, weight: float = 1.0) -> Graph:
    """2-D torus (mesh with wraparound links); needs both dims >= 3."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs rows, cols >= 3")
    g = grid_graph(rows, cols, weight)
    for r in range(rows):
        g.add_edge(r * cols, r * cols + cols - 1, weight)
    for c in range(cols):
        g.add_edge(c, (rows - 1) * cols + c, weight)
    return g


def hypercube_graph(dim: int, weight: float = 1.0) -> Graph:
    """``dim``-dimensional hypercube on ``2**dim`` nodes."""
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    n = 1 << dim
    g = Graph(n)
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if v > u:
                g.add_edge(u, v, weight)
    return g


def random_geometric_graph(
    n: int, radius: float, seed: int = 0, *, euclidean_weights: bool = False
) -> Graph:
    """Random geometric graph on the unit square.

    Nodes are uniform points; an edge joins pairs within ``radius``.  If the
    sample is disconnected, the nearest pair across components is linked so
    the result is always usable by the protocol.  With
    ``euclidean_weights=True`` edges carry their Euclidean length, giving a
    "constant dimensional Euclidean graph" in the sense of §1.1.
    """
    rng = spawn_rng(seed, f"geometric-{n}-{radius}")
    pts = rng.random((n, 2))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            d = math.dist(pts[u], pts[v])
            if d <= radius:
                g.add_edge(u, v, d if euclidean_weights else 1.0)
    _stitch_components(g, pts, euclidean_weights)
    return g


def _stitch_components(g: Graph, pts: np.ndarray, euclidean_weights: bool) -> None:
    """Connect a geometric graph's components via nearest cross-pairs."""
    from repro.graphs.shortest_paths import connected_components

    comps = connected_components(g)
    while len(comps) > 1:
        a, b = comps[0], comps[1]
        best = (math.inf, -1, -1)
        for u in a:
            for v in b:
                d = math.dist(pts[u], pts[v])
                if d < best[0]:
                    best = (d, u, v)
        _, u, v = best
        g.add_edge(u, v, best[0] if euclidean_weights else 1.0)
        comps = connected_components(g)


def gnp_connected_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdős–Rényi ``G(n, p)`` conditioned on connectivity.

    Draws samples until connected (probability of failure shrinks fast for
    ``p`` above the connectivity threshold); gives up after 200 attempts.
    """
    if not 0.0 < p <= 1.0:
        raise GraphError(f"p must be in (0, 1], got {p}")
    rng = spawn_rng(seed, f"gnp-{n}-{p}")
    for _ in range(200):
        g = Graph(n)
        mask = rng.random((n, n)) < p
        for u in range(n):
            for v in range(u + 1, n):
                if mask[u, v]:
                    g.add_edge(u, v)
        if is_connected(g):
            return g
    raise GraphError(f"could not sample a connected G({n}, {p}) in 200 tries")


def caterpillar_graph(spine: int, legs_per_node: int, weight: float = 1.0) -> Graph:
    """Path of ``spine`` nodes, each with ``legs_per_node`` pendant leaves."""
    n = spine * (1 + legs_per_node)
    g = Graph(n)
    for i in range(spine - 1):
        g.add_edge(i, i + 1, weight)
    nxt = spine
    for i in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(i, nxt, weight)
            nxt += 1
    return g


def lollipop_graph(clique: int, tail: int, weight: float = 1.0) -> Graph:
    """Clique ``K_clique`` with a path of ``tail`` nodes hanging off node 0."""
    n = clique + tail
    g = Graph(n)
    for u in range(clique):
        for v in range(u + 1, clique):
            g.add_edge(u, v, weight)
    prev = 0
    for i in range(clique, n):
        g.add_edge(prev, i, weight)
        prev = i
    return g
