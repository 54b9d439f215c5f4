"""Rooted spanning tree with fast distance queries.

The arrow protocol operates on a pre-selected spanning tree ``T`` of the
network.  :class:`SpanningTree` stores the rooted structure and answers
``d_T(u, v)`` distance queries in ``O(log n)`` via binary-lifting LCA.
:meth:`~SpanningTree.distances_from` is the same query for every target
at once, the form the cost matrices and the tree diameter read.

What is built when.  Construction keeps two per-node lists, ``parent``
and ``edge_weight``.  It checks that the parent array is one tree by
pointer doubling (``anc = [anc[a] for a in anc]`` until every entry is
the root: at most ``n.bit_length()`` rounds of one list comprehension,
and no list per node).  The protocol needs no more: every arrow run
points each node at ``tree.parent``, and only the Section 3 analysis,
the stabilizer and the tree metrics read ``d_T``, ``children``,
``depth`` or ``wdepth``.  Those three are built together, by one BFS
from the root, on the first read; the binary-lifting table by the first
distance query, and its array form by the first
:meth:`~SpanningTree.distances_from`.  The BFS cost moves to the first
query; it is not removed.  On a path of 2^20 nodes, construction holds
16 MB where building the three fields eagerly held 212 MB.

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
    """A rooted tree over nodes ``0..n-1`` with LCA-based distance queries.

    Holds ``parent``, ``root`` and ``edge_weight`` from construction on;
    ``children``, ``depth`` and ``wdepth`` are read-only and built on first
    read (see the module docstring).  A malformed parent array is refused
    at construction all the same.
    """

    __slots__ = (
        "_n",
        "root",
        "parent",
        "_children",
        "_depth",
        "_wdepth",
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

        # Pointer doubling: after k rounds anc[v] is v's 2^k-th ancestor (the
        # root past it), so a tree is all root within n.bit_length() rounds
        # and a cycle or a forest never is.  A round that changes nothing
        # ends the loop early (comparing stops at the first difference, so
        # it costs less than a count per round).  Only a malformed array
        # pays for the BFS, which names what is wrong.
        self._children: list[list[int]] | None = None
        self._depth: list[int] | None = None
        self._wdepth: list[float] | None = None
        if not 0 <= min(parent) <= max(parent) < n:
            self._build()
        anc = parent
        for _ in range(n.bit_length()):
            up = [anc[a] for a in anc]
            if up == anc:
                break
            anc = up
        if anc.count(root) != n:
            self._build()  # raises: the array is not one tree

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

    @property
    def children(self) -> list[list[int]]:
        """``children[u]``: the nodes whose parent is ``u``, ascending."""
        if self._children is None:
            self._build()
        return self._children

    @property
    def depth(self) -> list[int]:
        """Hop count from the root to each node."""
        if self._depth is None:
            self._build()
        return self._depth

    @property
    def wdepth(self) -> list[float]:
        """Weighted distance from the root to each node."""
        if self._wdepth is None:
            self._build()
        return self._wdepth

    def edges(self) -> list[tuple[int, int, float]]:
        """Undirected edge list ``(child, parent, weight)``."""
        return [
            (v, self.parent[v], self.edge_weight[v])
            for v in range(self._n)
            if v != self.root
        ]

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        depth = self.depth
        if depth[u] < depth[v]:
            u, v = v, u
        diff = depth[u] - depth[v]
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
        wdepth = self.wdepth
        return wdepth[u] + wdepth[v] - 2.0 * wdepth[a]

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanningTree(n={self._n}, root={self.root})"

    # ------------------------------------------------------------------
    # internal: the BFS and the binary lifting table
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """``children``, ``depth`` and ``wdepth`` by one BFS from the root.

        Also the check that names a malformed parent array: construction
        runs it when pointer doubling does not converge, and it raises.
        """
        n = self._n
        root = self.root
        parent = self.parent
        weight = self.edge_weight
        children: list[list[int]] = [[] for _ in range(n)]
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
        depth = [-1] * n
        wdepth = [0.0] * n
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
        self._children = children
        self._depth = depth
        self._wdepth = wdepth

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
