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
:class:`repro.graphs.graph.Graph`.
"""

from __future__ import annotations

import math

from repro.errors import GraphError
from repro.graphs.graph import Graph, _checked_weight
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
    return Graph.from_columns(n, range(n - 1), range(1, n), weight)


def cycle_graph(n: int, weight: float = 1.0) -> Graph:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph.from_columns(n, [*range(n - 1), n - 1], [*range(1, n), 0], weight)


def star_graph(n: int, weight: float = 1.0) -> Graph:
    """Star with centre 0 and ``n - 1`` leaves."""
    return Graph.from_columns(n, [0] * (n - 1), range(1, n), weight)


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    """Complete graph ``K_n`` with uniform edge weight (SP2 model, §5)."""
    g = Graph(n)
    if n > 1:
        _checked_weight(weight)
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
    return Graph.from_columns(
        n, range(1, n), [(i - 1) // 2 for i in range(1, n)], weight
    )


def _grid_columns(rows: int, cols: int) -> tuple[list[int], list[int]]:
    """Mesh edges in row-major order, right link before down link."""
    us: list[int] = []
    vs: list[int] = []
    for u in range(rows * cols):
        r, c = divmod(u, cols)
        if c + 1 < cols:
            us.append(u)
            vs.append(u + 1)
        if r + 1 < rows:
            us.append(u)
            vs.append(u + cols)
    return us, vs


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> Graph:
    """``rows x cols`` 2-D mesh; node ``(r, c)`` is ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    us, vs = _grid_columns(rows, cols)
    return Graph.from_columns(rows * cols, us, vs, weight)


def torus_graph(rows: int, cols: int, weight: float = 1.0) -> Graph:
    """2-D torus (mesh with wraparound links); needs both dims >= 3."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs rows, cols >= 3")
    us, vs = _grid_columns(rows, cols)
    us += [r * cols for r in range(rows)] + list(range(cols))
    vs += [r * cols + cols - 1 for r in range(rows)]
    vs += [(rows - 1) * cols + c for c in range(cols)]
    return Graph.from_columns(rows * cols, us, vs, weight)


def hypercube_graph(dim: int, weight: float = 1.0) -> Graph:
    """``dim``-dimensional hypercube on ``2**dim`` nodes."""
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    n = 1 << dim
    pairs = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim)]
    pairs = [(u, v) for u, v in pairs if v > u]
    return Graph.from_columns(
        n, [u for u, _ in pairs], [v for _, v in pairs], weight
    )


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
    from repro.graphs.shortest_paths import connected_components

    rng = spawn_rng(seed, f"geometric-{n}-{radius}")
    pts = rng.random((n, 2)).tolist()
    us: list[int] = []
    vs: list[int] = []
    ds: list[float] = []
    for u in range(n):
        pu = pts[u]
        for v in range(u + 1, n):
            d = math.dist(pu, pts[v])
            if d <= radius:
                us.append(u)
                vs.append(v)
                ds.append(d)

    def build() -> Graph:
        return Graph.from_columns(n, us, vs, ds if euclidean_weights else 1.0)

    g = build()
    comps = connected_components(g)
    if len(comps) == 1:
        return g
    # Stitch: link the component of node 0 to the next component by their
    # nearest cross pair, merge, repeat (components come ordered by their
    # smallest node, so the merged one stays first).
    merged = comps[0]
    for other in comps[1:]:
        best = (math.inf, -1, -1)
        for u in merged:
            pu = pts[u]
            for v in other:
                d = math.dist(pu, pts[v])
                if d < best[0]:
                    best = (d, u, v)
        d, u, v = best
        us.append(u)
        vs.append(v)
        ds.append(d)
        merged = sorted(merged + other)
    return build()


def gnp_connected_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdős–Rényi ``G(n, p)`` conditioned on connectivity.

    Draws samples until connected (probability of failure shrinks fast for
    ``p`` above the connectivity threshold); gives up after 200 attempts.
    """
    import numpy as np

    if not 0.0 < p <= 1.0:
        raise GraphError(f"p must be in (0, 1], got {p}")
    rng = spawn_rng(seed, f"gnp-{n}-{p}")
    for _ in range(200):
        mask = rng.random((n, n)) < p
        # Row-major upper triangle: the order of a ``u < v`` nested loop.
        us, vs = np.nonzero(np.triu(mask, 1))
        g = Graph.from_columns(n, us.tolist(), vs.tolist(), 1.0)
        if is_connected(g):
            return g
    raise GraphError(f"could not sample a connected G({n}, {p}) in 200 tries")


def caterpillar_graph(spine: int, legs_per_node: int, weight: float = 1.0) -> Graph:
    """Path of ``spine`` nodes, each with ``legs_per_node`` pendant leaves."""
    n = spine * (1 + legs_per_node)
    us = list(range(spine - 1))
    vs = list(range(1, spine))
    for i in range(spine):
        us += [i] * legs_per_node
    vs += range(spine, n)
    return Graph.from_columns(n, us, vs, weight)


def lollipop_graph(clique: int, tail: int, weight: float = 1.0) -> Graph:
    """Clique ``K_clique`` with a path of ``tail`` nodes hanging off node 0."""
    n = clique + tail
    us = [u for u in range(clique) for _ in range(u + 1, clique)]
    vs = [v for u in range(clique) for v in range(u + 1, clique)]
    us += [0, *range(clique, n - 1)] if tail else []
    vs += range(clique, n)
    return Graph.from_columns(n, us, vs, weight)
