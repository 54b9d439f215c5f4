"""Tree-layer oracles and helpers no table runs.

``SpanningTree``, ``Graph`` and the stabilizer keep what the protocol and
the analysis read; what only tests ask of a tree, a graph or a pointer
array lives here, beside ``tests/small_models.py``:

* :func:`neighbors`, :func:`degree` and :func:`tree_path` — tree
  adjacency and the unique tree path (the tests that check queue messages
  travel the direct tree path, [4], and the stabilizer's random pointers);
* :func:`hop_distance` — the unweighted tree distance, the hop count the
  direct-path property predicts;
* :func:`graph_degree` — a graph node's neighbour count;
* :func:`all_pairs_distances` — the dense ``d_G`` matrix;
* :func:`tree_stretch_brute_force` — the all-pairs stretch that
  ``spanning.metrics.tree_stretch``'s edge scan is checked against;
* :func:`is_tree` — connected with ``n - 1`` edges;
* :func:`count_sinks` and :func:`sink_reached_from` — a pointer walk, the
  independent oracle ``core.stabilize``'s edge rule (a quiescent pointer
  array is legal iff every tree edge is crossed once) is tested against;
* :func:`eager_fields` — the BFS ``SpanningTree`` ran at construction
  before ``children``, ``depth`` and ``wdepth`` became lazy, kept
  verbatim as the oracle for the lazy fields and for the exact
  ``TreeError`` text of a malformed parent array.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.errors import TreeError
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_distances, dijkstra, is_connected
from repro.spanning.tree import SpanningTree


def neighbors(tree: SpanningTree, u: int) -> list[int]:
    """Tree neighbours of ``u`` (parent first, then children)."""
    out = [] if u == tree.root else [tree.parent[u]]
    out.extend(tree.children[u])
    return out


def degree(tree: SpanningTree, u: int) -> int:
    """Number of tree neighbours of ``u``."""
    return len(tree.children[u]) + (0 if u == tree.root else 1)


def tree_path(tree: SpanningTree, u: int, v: int) -> list[int]:
    """The unique tree path from ``u`` to ``v``, inclusive."""
    a = tree.lca(u, v)
    left = []
    x = u
    while x != a:
        left.append(x)
        x = tree.parent[x]
    right = []
    x = v
    while x != a:
        right.append(x)
        x = tree.parent[x]
    return left + [a] + list(reversed(right))


def hop_distance(tree: SpanningTree, u: int, v: int) -> int:
    """Unweighted (hop) tree distance."""
    a = tree.lca(u, v)
    depth = tree.depth
    return depth[u] + depth[v] - 2 * depth[a]


def graph_degree(graph: Graph, u: int) -> int:
    """Number of neighbours of ``u`` in ``graph``."""
    return sum(1 for _ in graph.neighbors(u))


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """Dense ``n x n`` distance matrix (float64; ``inf`` if disconnected)."""
    n = graph.num_nodes
    out = np.empty((n, n), dtype=np.float64)
    unit = graph.is_unit_weighted()
    for s in range(n):
        out[s, :] = bfs_distances(graph, s) if unit else dijkstra(graph, s)[0]
    return out


def tree_stretch_brute_force(graph: Graph, tree: SpanningTree) -> float:
    """All-pairs stretch (O(n^2) pairs); oracle for ``tree_stretch``."""
    dg = all_pairs_distances(graph)
    n = graph.num_nodes
    best = 1.0
    for u in range(n):
        for v in range(u + 1, n):
            best = max(best, tree.distance(u, v) / dg[u, v])
    return best


def is_tree(graph: Graph) -> bool:
    """True iff the graph is connected and has exactly ``n - 1`` edges."""
    return graph.num_edges == graph.num_nodes - 1 and is_connected(graph)


def count_sinks(link: list[int]) -> int:
    """Number of nodes whose pointer targets themselves."""
    return sum(1 for v, target in enumerate(link) if target == v)


def sink_reached_from(link: list[int], start: int, limit: int) -> int | None:
    """Follow pointers from ``start``; the sink reached, or None on a cycle.

    ``limit`` bounds the walk (use the node count: a legal walk never
    revisits a node).
    """
    cur = start
    for _ in range(limit + 1):
        nxt = link[cur]
        if nxt == cur:
            return cur
        cur = nxt
    return None


def eager_fields(
    parent: list[int], root: int, edge_weights: list[float] | None = None
) -> tuple[list[list[int]], list[int], list[float]]:
    """``(children, depth, wdepth)`` as the eager constructor built them.

    Raises the ``TreeError`` that constructor raised, with its text, for
    every malformed input.
    """
    n = len(parent)
    if not 0 <= root < n:
        raise TreeError(f"root {root} out of range [0, {n})")
    if parent[root] != root:
        raise TreeError("parent[root] must equal root")
    parent = list(parent)
    if edge_weights is None:
        weight = [1.0] * n
    else:
        weight = [float(w) for w in edge_weights]
        weight[root] = 1.0
        if (
            not 0.0 < min(weight) <= max(weight) < math.inf
            or any(map(math.isnan, weight))
        ):
            v = next(v for v, w in enumerate(weight) if not 0.0 < w < math.inf)
            raise TreeError(
                f"edge weight of ({v}, {parent[v]}) must be positive and "
                f"finite, got {weight[v]}"
            )
    weight[root] = 0.0

    children = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if v != root:
            if not 0 <= p < n:
                raise TreeError(f"parent[{v}]={p} out of range")
            if p == v:
                raise TreeError(f"non-root node {v} is its own parent")
            children[p].append(v)

    depth = [-1] * n
    wdepth = [0.0] * n
    depth[root] = 0
    q: deque[int] = deque([root])
    seen = 1
    while q:
        u = q.popleft()
        for c in children[u]:
            if depth[c] != -1:
                raise TreeError(f"node {c} reached twice; parent array has a cycle")
            depth[c] = depth[u] + 1
            wdepth[c] = wdepth[u] + weight[c]
            q.append(c)
        seen += len(children[u])
    if seen != n:
        raise TreeError(
            f"parent array reaches only {seen}/{n} nodes (cycle or forest)"
        )
    return children, depth, wdepth
