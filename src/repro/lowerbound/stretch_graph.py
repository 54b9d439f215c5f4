"""The Theorem 4.2 construction: lower bounds at a prescribed stretch.

For any stretch ``s`` and tree diameter ``D`` (with ``D/s`` a power of
two), the graph ``G`` is the path ``v_0..v_D`` plus one unit-weight
shortcut ``(v_{(i-1)s}, v_{is})`` for each ``i = 1..D/s``.  The path is a
spanning tree of ``G`` with stretch exactly ``s``: each shortcut joins two
nodes one hop apart in ``G`` and ``s`` hops apart in the tree.  The
Theorem 4.1 request set for a path of length ``D/s`` is placed on the
shortcut endpoints ``v_0, v_s, v_2s, ...``.  Arrow, confined to the tree,
pays ``s`` times its cost on that shorter path, while the optimal
algorithm travels the shortcuts and pays no more than there, so the ratio
is ``Ω(s · log(D/s) / log log(D/s))``.
"""

from __future__ import annotations

from repro.core.requests import RequestSchedule
from repro.errors import ScheduleError
from repro.graphs.graph import Graph
from repro.lowerbound.construction import (
    LowerBoundInstance,
    default_k,
    theorem41_requests,
)
from repro.spanning.tree import SpanningTree

__all__ = ["theorem42_instance"]


def theorem42_instance(D_over_s: int, s: int, k: int | None = None) -> LowerBoundInstance:
    """Build the Theorem 4.2 instance with tree diameter ``D = s * D_over_s``.

    ``D_over_s`` must be a power of two; ``s >= 1``.  The tree is the full
    path rooted at ``v_0``; the graph adds one unit-weight shortcut per
    ``s`` path hops, giving the tree stretch ``s``.
    """
    if s < 1:
        raise ScheduleError(f"stretch must be >= 1, got {s}")
    if k is None:
        k = default_k(D_over_s)
    D = s * D_over_s
    # The path v_0..v_D, then (for s > 1) one shortcut per s path hops.
    us = list(range(D))
    vs = list(range(1, D + 1))
    if s > 1:
        us += range(0, D, s)
        vs += range(s, D + 1, s)
    graph = Graph.from_columns(D + 1, us, vs, 1.0)
    parent = [max(0, i - 1) for i in range(D + 1)]
    tree = SpanningTree(parent, root=0)
    # Requests of the path-(D/s) construction, placed s hops apart.
    pairs = [
        (pos * s, t) for (pos, t) in theorem41_requests(D_over_s, k)
    ]
    return LowerBoundInstance(graph, tree, RequestSchedule(pairs), D, k, s)
