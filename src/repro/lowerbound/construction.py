"""The Theorem 4.1 adversarial request construction.

On a path ``v_0, ..., v_D`` (a diameter path of the spanning tree, with
the arrow root at ``v_0``), the paper builds a recursive request set that
forces arrow to sweep the whole path once per time layer while an optimal
offline ordering pays only ``O(D)``:

* the recursion starts with ``r = (v_D, k, log2 D, +1)``;
* a request ``(v_i, t, s, d)`` with ``t > 0`` spawns the requests
  ``(v_{i - d 2^j}, t - 1, j, -d)`` for ``j = 0 .. s-1``;
* additionally both path endpoints issue requests at every time
  ``0 .. k-1`` (duplicates with the recursion are dropped).

Arrow orders the result layer by layer (sweeping left-to-right at even
times, right-to-left at odd times), for total cost ``Θ(k D)``; the comb-
shaped Manhattan MST (see :mod:`repro.lowerbound.comb`) certifies the
optimal cost is ``O(D)`` once ``k <= log D / log log D``.  Figure 9 of the
paper draws the instance for ``D = 64, k = 6`` — regenerated by
``repro-arrow fig9`` (the ``lowerbound`` cell family of
:mod:`repro.sweep.families`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.requests import RequestSchedule
from repro.errors import ScheduleError
from repro.graphs.generators import path_graph
from repro.graphs.graph import Graph
from repro.spanning.tree import SpanningTree

__all__ = [
    "default_k",
    "theorem41_requests",
    "LowerBoundInstance",
    "theorem41_instance",
]


def default_k(D: int) -> int:
    """The paper's layer count ``k = Θ(log D / log log D)``, rounded even.

    ``k`` must be even so the alternating sweep ends where it started; the
    proof sets ``k = log D / log log D``.
    """
    if D < 4:
        return 2
    raw = math.log2(D) / max(1.0, math.log2(max(2.0, math.log2(D))))
    k = max(2, int(round(raw)))
    if k % 2:
        k += 1
    return k


def theorem41_requests(D: int, k: int | None = None) -> list[tuple[int, float]]:
    """The recursive request set as ``(node_index, time)`` pairs.

    ``D`` must be a power of two (the paper's simplifying assumption).
    Node indices refer to positions ``0..D`` on the path.
    """
    if D < 2 or D & (D - 1):
        raise ScheduleError(f"D must be a power of two >= 2, got {D}")
    if k is None:
        k = default_k(D)
    if k < 2 or k % 2:
        raise ScheduleError(f"k must be a positive even integer, got {k}")

    seen: set[tuple[int, int]] = set()

    def add(pos: int, t: int) -> None:
        if not 0 <= pos <= D:
            raise ScheduleError(f"recursion left the path: position {pos}")
        seen.add((pos, t))

    def recurse(pos: int, t: int, size: int, direction: int) -> None:
        add(pos, t)
        if t <= 0:
            return
        for j in range(size):
            recurse(pos - direction * (1 << j), t - 1, j, -direction)

    recurse(D, k, int(math.log2(D)), +1)
    for t in range(k):
        add(0, t)
        add(D, t)
    return [(pos, float(t)) for (pos, t) in sorted(seen, key=lambda x: (x[1], x[0]))]


@dataclass(frozen=True, slots=True)
class LowerBoundInstance:
    """A ready-to-run Section 4 instance: the path ``v_0 .. v_D`` as tree,
    its graph (the path itself, or Theorem 4.2's shortcut graph of stretch
    ``s``), the schedule, and the layer count ``k``."""

    graph: Graph
    tree: SpanningTree
    schedule: RequestSchedule
    D: int
    k: int
    s: int = 1


def theorem41_instance(D: int, k: int | None = None) -> LowerBoundInstance:
    """Build graph (= path), tree (= path rooted at ``v_0``) and schedule.

    The communication graph equals the tree ("G = T"; adding edges could
    only help the optimal algorithm, as the proof notes), so the stretch
    is 1 and the instance isolates the ``log D / log log D`` factor.
    """
    if k is None:
        k = default_k(D)
    pairs = theorem41_requests(D, k)
    graph = path_graph(D + 1)
    parent = [max(0, i - 1) for i in range(D + 1)]
    tree = SpanningTree(parent, root=0)
    return LowerBoundInstance(graph, tree, RequestSchedule(pairs), D, k)
