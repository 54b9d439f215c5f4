"""Shortest-path routing over ``G``, shared by both engines.

:class:`Router` lives apart from :mod:`repro.core.message` so that a flat
run, which routes but builds no message, loads no message class.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_predecessors, dijkstra
from repro.net.latency import LatencyModel

__all__ = ["Router"]


class Router:
    """Shortest-path routing over ``G``: the one source of routed delays.

    Caches the predecessor array per source — Dijkstra's, or on a
    unit-weighted graph BFS's (:func:`~repro.graphs.shortest_paths.bfs_predecessors`
    returns Dijkstra's exact ``pred`` there, so every path is the same),
    decided once at the first route — and one route per ``(src, dst)``
    pair: for a deterministic latency model the summed path delay and hop
    count, else the path's edge columns, which a stochastic model
    re-samples per send, edge by edge in path order, from the one ``rng``
    it is given.  :class:`~repro.core.message.Network` routes
    :meth:`~repro.core.message.Network.send_routed` through one, and the
    flat loops (:mod:`repro.core.fast_closed_loop`,
    :mod:`repro.apps.directory`) build one over the same
    ``"network-latency"`` stream.
    """

    __slots__ = (
        "graph", "latency", "rng", "_stochastic", "_predecessors", "_sssp",
        "_routes", "_values",
    )

    def __init__(self, graph: Graph, latency: LatencyModel, rng) -> None:
        self.graph = graph
        self.latency = latency
        self.rng = rng
        self._stochastic = latency.stochastic
        self._predecessors = None  # bfs_predecessors or dijkstra, at the first route
        self._sssp: dict[int, list[int]] = {}
        self._routes: dict[tuple[int, int], tuple] = {}
        self._values: dict[tuple[float, int], tuple[float, int]] = {}

    def _path_edges(
        self, src: int, dst: int
    ) -> tuple[list[int], list[int], list[float]]:
        pred = self._sssp.get(src)
        if pred is None:
            if self._predecessors is None:
                self._predecessors = (
                    bfs_predecessors if self.graph.is_unit_weighted() else dijkstra
                )
            _, pred = self._predecessors(self.graph, src)
            self._sssp[src] = pred
        path = [dst]
        while path[-1] != src:
            nxt = pred[path[-1]]
            if nxt < 0:
                raise NetworkError(f"node {dst} unreachable from {src}")
            path.append(nxt)
        path.reverse()
        srcs = path[:-1]
        dsts = path[1:]
        return srcs, dsts, self.graph.edge_weights(srcs, dsts)

    def _sample(
        self, srcs: list[int], dsts: list[int], weights: list[float]
    ) -> tuple[float, int]:
        sample = self.latency.sample
        rng = self.rng
        delay = 0.0
        for a, b, w in zip(srcs, dsts, weights):
            delay += sample(a, b, w, rng)
        return delay, len(srcs)

    def delay_hops(self, src: int, dst: int) -> tuple[float, int]:
        """Summed per-edge delay and hop count of one routed send."""
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            route = self._path_edges(src, dst)
            if not self._stochastic:
                route = self._sample(*route)
                # Deterministic routes repeat one value many times (every
                # one-hop unit route is (1.0, 1)): keep one tuple per value.
                route = self._values.setdefault(route, route)
            self._routes[key] = route
        if self._stochastic:
            return self._sample(*route)
        return route
