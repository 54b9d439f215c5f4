"""Bitonic layered lower-bound instances (reconstruction; see note).

**Reproduction note.**  The Theorem 4.1 proof in
the paper is a construction sketch: it asserts that arrow orders the
recursive request set time-layer by time-layer, sweeping the whole path
once per layer (cost ``k·D``).  Under the Lemma 3.8 nearest-neighbour
characterisation — which our message-level simulator provably realises —
the *literal* recursion (as transcribed in
:mod:`repro.lowerbound.construction`) does not force those sweeps for
``k >= 3``: we verify computationally that its worst-case cost over all
legal message schedules is exactly ``2 D`` (see
``tests/lowerbound/test_construction.py``).  The failures are boundary-
column co-location and midpoint collisions between one-sided doubling
cascades of consecutive layers.

This module implements the construction the proof's *mechanism* needs:
each refinement round places **two-sided (bitonic) doubling cascades**
between the anchors of the previous round — dots at distances ``1, 2, 4,
...`` from both gap endpoints — so that a sweeping request's local gap is
always within +1 of its distance to the nearest unvisited anchor, the
protection property behind the layer sweeps.  Finer rounds are issued
earlier; round counts multiply by ``~2 log D`` per level, which is exactly
why the paper's layer count tops out at ``k = Θ(log D / log log D)``.

Measured behaviour (``test_theorem41_sweep_paper_scale`` in
``tests/experiments/test_sweeps.py``): the arrow/optimal ratio of these
instances grows from ≈2 at ``D = 64`` to ≈3 at ``D = 1024``, while the
literal transcription stays at a flat factor 2.  Past ``D = 1024`` it
stops tracking the paper's ``log D / log log D`` target: at ``D = 1024
/ 4096 / 16384`` the ratio reads 2.964 / 3.046 / 3.047 against a target
of 3.01 / 3.35 / 3.68.  It is flat because ``default_k`` is 4 for every
power of two from ``2^8`` to ``2^19`` (so these instances run ``k =
5``), and at fixed ``D`` more layers add requests but no ratio.
"""

from __future__ import annotations

from repro.core.requests import RequestSchedule
from repro.errors import ScheduleError
from repro.graphs.generators import path_graph
from repro.lowerbound.construction import LowerBoundInstance
from repro.spanning.tree import SpanningTree

__all__ = ["layered_requests", "layered_instance"]


def layered_requests(D: int, k: int) -> list[tuple[int, float]]:
    """Request set: ``k`` bitonic refinement layers plus the final request.

    Layer ``t`` (issued at time ``t``) is the ``(k - t)``-th refinement
    round: finest layer first.  Both path endpoints issue at every time
    ``0 .. k-1`` (the paper's boundary columns), and the single coarsest
    request ``(v_D, k)`` closes the instance.
    """
    if D < 4 or D & (D - 1):
        raise ScheduleError(f"D must be a power of two >= 4, got {D}")
    if k < 1:
        raise ScheduleError(f"k must be >= 1, got {k}")
    anchors = {0, D}
    layer_pos: dict[int, set[int]] = {}
    for t in range(k - 1, -1, -1):
        pts = sorted(anchors)
        new: set[int] = set()
        for a, b in zip(pts, pts[1:]):
            gap = b - a
            step = 1
            while step <= gap // 2:
                new.add(a + step)
                new.add(b - step)
                step <<= 1
        new -= anchors
        layer_pos[t] = new
        anchors |= new
    pairs: set[tuple[int, int]] = set()
    for t in range(k):
        for p in layer_pos[t]:
            pairs.add((p, t))
        pairs.add((0, t))
        pairs.add((D, t))
    pairs.add((D, k))
    return [(p, float(t)) for (p, t) in sorted(pairs, key=lambda x: (x[1], x[0]))]


def layered_instance(D: int, k: int) -> LowerBoundInstance:
    """Build graph (= path), tree (= path rooted at ``v_0``) and schedule."""
    pairs = layered_requests(D, k)
    graph = path_graph(D + 1)
    tree = SpanningTree([max(0, i - 1) for i in range(D + 1)], root=0)
    return LowerBoundInstance(graph, tree, RequestSchedule(pairs), D, k)
