"""Self-stabilisation of arrow link states (extension, after [9]).

Herlihy & Tirthapura showed the arrow protocol can be made self-stabilising
with *local checking and correction*.  The key observation: in a quiescent
state (no messages in flight), a link configuration is legal — following
the pointers from any node reaches a unique sink — **iff every tree edge is
crossed by exactly one pointer**:

* an edge crossed by both endpoints' pointers is a 2-cycle (messages would
  bounce forever);
* an edge crossed by neither is abandoned (two separate "sink regions",
  i.e. multiple queue tails).

Both conditions are checkable by the edge's two endpoints alone, which is
what makes the protocol locally checkable.  This module implements the
checker and a one-pass top-down correction: processing nodes in BFS order
(parents before children), each non-root node repairs the edge to its
parent by adjusting only its own pointer.  Because a node's pointer is
finalised exactly when the node is processed and each edge is examined at
its child endpoint after its parent's pointer is final, a single pass
restores legality on every edge — the property-based tests corrupt
configurations arbitrarily and verify convergence.

Scope note: correction applies to quiescent configurations, and since the
fault axis landed this module is the **live repair step** of every engine:
:mod:`repro.faults` runs :func:`find_violations_links` /
:func:`stabilize_links` at the first quiescent point after a crash or
message loss (and once more at the end of a run), restoring a unique sink
before the next request is issued.  The runtime monitors
(:mod:`repro.monitors`) replay the same pass on their mirror state to
cross-check the engines' repairs.  Everything here operates on a plain
``link`` pointer array (``link[v]`` is node ``v``'s pointer) — what the
flat-heap engine and the monitors hold, and ``[nd.link for nd in nodes]``
of a message-level run.  The tests check the edge rule against an
independent oracle that walks the pointers instead of counting edge
crossings (``count_sinks`` and ``sink_reached_from`` in
``tests/tree_oracles.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.spanning.tree import SpanningTree

__all__ = [
    "EdgeViolation",
    "find_violations_links",
    "stabilize_links",
]


@dataclass(frozen=True, slots=True)
class EdgeViolation:
    """A tree edge whose pointer crossing count is not exactly one.

    ``kind`` is ``"double"`` (both endpoints point at each other) or
    ``"none"`` (neither does).
    """

    child: int
    parent: int
    kind: str


def find_violations_links(
    link: list[int], tree: SpanningTree
) -> list[EdgeViolation]:
    """All illegal edges of a quiescent pointer array (see module docs)."""
    out: list[EdgeViolation] = []
    parent = tree.parent
    for v in range(tree.num_nodes):
        if v == tree.root:
            continue
        p = parent[v]
        c = int(link[v] == p) + int(link[p] == v)
        if c == 2:
            out.append(EdgeViolation(v, p, "double"))
        elif c == 0:
            out.append(EdgeViolation(v, p, "none"))
    return out


def stabilize_links(link: list[int], tree: SpanningTree) -> int:
    """Repair an arbitrary quiescent pointer array, in place, in one BFS pass.

    Processing parents before children, each non-root node ``v`` looks at
    the edge to its parent ``p`` (whose pointer is already final):

    * crossed twice (``link(v) == p`` and ``link(p) == v``): ``v`` breaks
      the 2-cycle by becoming a sink (``link(v) <- v``); the edge keeps the
      parent's crossing;
    * crossed zero times: ``v`` re-points up (``link(v) <- p``);
    * crossed once: nothing to do.

    Returns the number of pointer corrections applied.  Afterwards the
    configuration is legal: exactly one sink, every pointer chain reaches
    it (asserted by the tests).  This is the repair pass
    :mod:`repro.faults` runs after a crash on either engine and the
    monitors replay on their mirror.
    """
    fixes = 0
    parent = tree.parent
    order: deque[int] = deque([tree.root])
    bfs: list[int] = []
    while order:
        u = order.popleft()
        bfs.append(u)
        order.extend(tree.children[u])
    for v in bfs:
        if v == tree.root:
            continue
        p = parent[v]
        c = int(link[v] == p) + int(link[p] == v)
        if c == 2:
            link[v] = v
            fixes += 1
        elif c == 0:
            link[v] = p
            fixes += 1
    return fixes
