"""Shortest-path algorithms over :class:`repro.graphs.graph.Graph`.

Provides BFS (unit weights), Dijkstra (general positive weights) and
connectivity.  The analysis layer uses ``d_G`` distances to evaluate the
optimal algorithm's cost measure ``c_Opt`` (eq. 3 of the paper); the
router and the shortest-path tree builder read the predecessor arrays.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "bfs_predecessors",
    "dijkstra",
    "is_connected",
    "connected_components",
]


def bfs_distances(graph: Graph, source: int) -> list[float]:
    """Hop distances from ``source`` (ignores weights); ``inf`` if unreachable."""
    graph._check_node(source)
    adj = graph._adj
    dist = [math.inf] * graph.num_nodes
    dist[source] = 0.0
    q: deque[int] = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = du + 1.0
                q.append(v)
    return dist


def bfs_predecessors(graph: Graph, source: int) -> tuple[list[float], list[int]]:
    """:func:`dijkstra`'s ``(dist, pred)`` on a unit-weighted graph, by BFS.

    Each level is expanded in ascending node id, the ``(dist, id)`` order in
    which Dijkstra pops unit-weight nodes, so ``pred[v]`` is the smallest-id
    neighbour one hop closer — Dijkstra's choice — and both lists are equal
    to Dijkstra's.  The caller checks the weights.
    """
    graph._check_node(source)
    adj = graph._adj
    n = graph.num_nodes
    dist = [math.inf] * n
    pred = [-1] * n
    dist[source] = 0.0
    level = [source]
    d = 0.0
    while level:
        d += 1.0
        nxt: list[int] = []
        for u in level:
            for v in adj[u]:
                if dist[v] == math.inf:
                    dist[v] = d
                    pred[v] = u
                    nxt.append(v)
        nxt.sort()
        level = nxt
    return dist, pred


def dijkstra(graph: Graph, source: int) -> tuple[list[float], list[int]]:
    """Weighted distances and predecessor array from ``source``.

    Returns ``(dist, pred)`` where ``pred[v]`` is the previous node on one
    shortest path from the source (``-1`` for the source and unreachable
    nodes).
    """
    graph._check_node(source)
    adj = graph._adj
    n = graph.num_nodes
    dist = [math.inf] * n
    pred = [-1] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u].items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd, v))
    return dist, pred


def is_connected(graph: Graph) -> bool:
    """True iff the graph is connected."""
    return not math.isinf(max(bfs_distances(graph, 0)))


def connected_components(graph: Graph) -> list[list[int]]:
    """Connected components as sorted node lists."""
    adj = graph._adj
    seen = [False] * graph.num_nodes
    comps: list[list[int]] = []
    for s in graph.nodes():
        if seen[s]:
            continue
        comp = []
        q: deque[int] = deque([s])
        seen[s] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
        comps.append(sorted(comp))
    return comps
