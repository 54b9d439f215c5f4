"""Rooted spanning tree with fast distance queries.

The arrow protocol operates on a pre-selected spanning tree ``T`` of the
network.  :class:`SpanningTree` stores the rooted structure (parents,
children, depths), answers ``d_T(u, v)`` distance queries in ``O(log n)``
via binary-lifting LCA (the table is built by the first query), and
exposes the path between two nodes (used by the tests that verify queue
messages travel the direct tree path, [4]).
:meth:`~SpanningTree.distances_from` is the same query for every target
at once, the form the cost matrices and the tree diameter read.

Trees may be weighted; ``depth`` counts hops while ``wdepth`` accumulates
edge weights, and ``distance`` returns the weighted tree metric (which
collapses to hop count on unit-weighted trees — the synchronous model).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import TreeError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SpanningTree"]


class SpanningTree:
    """A rooted tree over nodes ``0..n-1`` with LCA-based distance queries."""

    __slots__ = (
        "_n",
        "root",
        "parent",
        "children",
        "depth",
        "wdepth",
        "edge_weight",
        "_up",
        "_arrays",
        "_log",
    )

    def __init__(
        self,
        parent: Sequence[int],
        root: int,
        edge_weights: Sequence[float] | None = None,
    ) -> None:
        """Build from a parent array.

        Parameters
        ----------
        parent:
            ``parent[v]`` is the parent of ``v``; ``parent[root]`` must be
            ``root`` itself.
        root:
            The root node (initial queue tail / sink in the protocol).
        edge_weights:
            ``edge_weights[v]`` is the weight of the edge ``v — parent[v]``
            (ignored at the root); positive and finite.  Defaults to all
            ones.
        """
        n = len(parent)
        if not 0 <= root < n:
            raise TreeError(f"root {root} out of range [0, {n})")
        if parent[root] != root:
            raise TreeError("parent[root] must equal root")
        self._n = n
        self.root = root
        self.parent = parent = list(parent)
        if edge_weights is None:
            weight = [1.0] * n
        else:
            weight = [float(w) for w in edge_weights]
            weight[root] = 1.0  # ignored at the root: a value the check passes
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
        self.edge_weight = weight

        self.children = children = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v != root:
                if not 0 <= p < n:
                    raise TreeError(f"parent[{v}]={p} out of range")
                if p == v:
                    raise TreeError(f"non-root node {v} is its own parent")
                children[p].append(v)

        # BFS from the root: computes depths and validates that the parent
        # array encodes a single tree reaching every node (no cycles, no
        # disconnected pieces).
        self.depth = depth = [-1] * n
        self.wdepth = wdepth = [0.0] * n
        depth[root] = 0
        q: deque[int] = deque([root])
        pop = q.popleft
        push = q.append
        seen = 1
        while q:
            u = pop()
            du = depth[u] + 1
            wu = wdepth[u]
            for c in children[u]:
                if depth[c] != -1:
                    raise TreeError(f"node {c} reached twice; parent array has a cycle")
                depth[c] = du
                wdepth[c] = wu + weight[c]
                push(c)
            seen += len(children[u])
        if seen != n:
            raise TreeError(
                f"parent array reaches only {seen}/{n} nodes (cycle or forest)"
            )

        # The binary-lifting table is built by the first distance query, and
        # its array form, with depth and wdepth, by the first distances_from.
        self._up: list[list[int]] | None = None
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._log = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
        root: int = 0,
    ) -> "SpanningTree":
        """Build from an undirected edge list, rooting at ``root``."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(num_nodes)]
        count = 0
        for e in edges:
            if not 2 <= len(e) <= 3:
                raise TreeError(f"edge {e!r} must be (u, v) or (u, v, weight)")
            u, v = e[0], e[1]
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise TreeError(f"edge ({u}, {v}) has a node out of range [0, {num_nodes})")
            w = float(e[2]) if len(e) == 3 else 1.0
            adj[u].append((v, w))
            adj[v].append((u, w))
            count += 1
        if count != num_nodes - 1:
            raise TreeError(f"tree needs {num_nodes - 1} edges, got {count}")
        parent = [-1] * num_nodes
        weights = [1.0] * num_nodes
        parent[root] = root
        q: deque[int] = deque([root])
        while q:
            u = q.popleft()
            for v, w in adj[u]:
                if parent[v] == -1 and v != root:
                    parent[v] = u
                    weights[v] = w
                    q.append(v)
        if -1 in parent:
            raise TreeError("edge list does not form a connected tree")
        return cls(parent, root, weights)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    def edges(self) -> list[tuple[int, int, float]]:
        """Undirected edge list ``(child, parent, weight)``."""
        return [
            (v, self.parent[v], self.edge_weight[v])
            for v in range(self._n)
            if v != self.root
        ]

    def neighbors(self, u: int) -> list[int]:
        """Tree neighbours of ``u`` (parent first, then children)."""
        out = [] if u == self.root else [self.parent[u]]
        out.extend(self.children[u])
        return out

    def degree(self, u: int) -> int:
        """Number of tree neighbours of ``u``."""
        return len(self.children[u]) + (0 if u == self.root else 1)

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        if self.depth[u] < self.depth[v]:
            u, v = v, u
        diff = self.depth[u] - self.depth[v]
        up = self._up
        if up is None:
            up = self._build_lifting()
        k = 0
        while diff:
            if diff & 1:
                u = up[k][u]
            diff >>= 1
            k += 1
        if u == v:
            return u
        for k in range(self._log - 1, -1, -1):
            if up[k][u] != up[k][v]:
                u = up[k][u]
                v = up[k][v]
        return self.parent[u]

    def distance(self, u: int, v: int) -> float:
        """Weighted tree distance ``d_T(u, v)``."""
        a = self.lca(u, v)
        return self.wdepth[u] + self.wdepth[v] - 2.0 * self.wdepth[a]

    def distances_from(self, src: int) -> np.ndarray:
        """``d_T(src, v)`` for every node ``v``, as one float64 array.

        :meth:`lca` run on every pair ``(src, v)`` at once over the same
        lifting table, then :meth:`distance`'s formula in the same order,
        so entry ``v`` equals ``distance(src, v)`` exactly.
        """
        import numpy as np

        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = (
                np.array(self._up or self._build_lifting(), dtype=np.intp),
                np.asarray(self.depth),
                np.asarray(self.wdepth),
            )
        up, depth, wdepth = arrays
        u = np.full(self._n, src)
        v = np.arange(self._n)
        swap = depth[src] < depth  # lca() lifts the deeper endpoint
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        diff = depth[u] - depth[v]
        for k in range(self._log):
            u = np.where(diff >> k & 1, up[k][u], u)
        for k in range(self._log - 1, -1, -1):
            uk, vk = up[k][u], up[k][v]
            differ = uk != vk
            u, v = np.where(differ, uk, u), np.where(differ, vk, v)
        a = np.where(u == v, u, up[0][u])
        return wdepth[src] + wdepth - 2.0 * wdepth[a]

    def hop_distance(self, u: int, v: int) -> int:
        """Unweighted (hop) tree distance."""
        a = self.lca(u, v)
        return self.depth[u] + self.depth[v] - 2 * self.depth[a]

    def path(self, u: int, v: int) -> list[int]:
        """The unique tree path from ``u`` to ``v``, inclusive."""
        a = self.lca(u, v)
        left = []
        x = u
        while x != a:
            left.append(x)
            x = self.parent[x]
        right = []
        x = v
        while x != a:
            right.append(x)
            x = self.parent[x]
        return left + [a] + list(reversed(right))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanningTree(n={self._n}, root={self.root})"

    # ------------------------------------------------------------------
    # internal: binary lifting table
    # ------------------------------------------------------------------
    def _build_lifting(self) -> list[list[int]]:
        """``up[k][v]``, the ``2^k``-th ancestor of ``v``, as lists for
        :meth:`lca` (:meth:`distances_from` reads it as one array)."""
        log = max(1, (max(self.depth)).bit_length())
        up = [list(self.parent)]
        for _ in range(1, log):
            prev = up[-1]
            up.append([prev[x] for x in prev])
        self._up = up
        self._log = log
        return up
