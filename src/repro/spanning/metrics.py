"""Quality metrics for spanning trees: stretch and diameter.

Definition 3.1 of the paper: given graph ``G`` and spanning tree ``T``, the
stretch is ``s = max_{u,v} d_T(u, v) / d_G(u, v)``.  For the maximum it
suffices to scan the *edges* of ``G``: for any pair ``(u, v)`` with a
shortest ``G``-path ``u = x_0, x_1, ..., x_k = v``,

    d_T(u, v) <= sum_i d_T(x_i, x_{i+1})
              <= max_edge_stretch * sum_i d_G(x_i, x_{i+1})
              =  max_edge_stretch * d_G(u, v),

so the per-edge maximum dominates every pair.  This turns an ``O(n^2)``
scan into ``O(m)`` LCA queries and also yields a *certificate edge* that
the tests check against a brute-force all-pairs computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TreeError
from repro.graphs.graph import Graph
from repro.spanning.tree import SpanningTree

__all__ = ["StretchReport", "tree_stretch", "tree_diameter"]


@dataclass(frozen=True, slots=True)
class StretchReport:
    """Stretch value plus the edge certifying it."""

    stretch: float
    witness: tuple[int, int]


def tree_stretch(graph: Graph, tree: SpanningTree) -> StretchReport:
    """Maximum stretch of ``tree`` w.r.t. ``graph`` (Definition 3.1).

    Scans the graph's edges (see module docstring for why that is enough)
    and verifies the tree's edges exist in the graph.
    """
    best = 1.0
    witness = (tree.root, tree.root)
    for u, v, w in tree.edges():
        if not graph.has_edge(u, v):
            raise TreeError(f"tree edge ({u}, {v}) missing from graph")
    for u, v, w in graph.edges():
        ratio = tree.distance(u, v) / w
        if ratio > best:
            best = ratio
            witness = (u, v)
    return StretchReport(best, witness)


def tree_diameter(tree: SpanningTree) -> float:
    """Weighted diameter ``D`` of the tree (double sweep).

    The node farthest from the root (largest ``wdepth``) ends a longest
    path, so its largest distance is the diameter; exact on trees.
    """
    far = max(range(tree.num_nodes), key=tree.wdepth.__getitem__)  # the first, as argmax
    return float(tree.distances_from(far).max())
