"""Cost measures over request sets (Section 3 of the paper).

All measures are materialised as dense ``(m x m)`` numpy matrices over the
*augmented* request list: index 0 is the virtual root request
``r_0 = (root, 0)`` and index ``i >= 1`` is the request with canonical id
``i - 1``.  Entry ``[i, j]`` is the cost of placing request ``j``
immediately after request ``i`` in a queuing order.

Implemented measures (``times`` is the issue-time vector, ``D`` a distance
matrix between the requests' nodes from :func:`request_distance_matrix` —
tree distances ``d_T`` off the tree's LCA table or graph distances ``d_G``
from :mod:`repro.graphs.shortest_paths`, depending on the caller):

* ``c_A`` (eq. 1):   ``D[i, j]`` — arrow's latency for consecutive requests
  is the distance matrix itself, so it needs no function of its own;
* ``c_T`` (Def. 3.5): ``t_j - t_i + D`` if non-negative, else
  ``t_i - t_j + D`` — the asymmetric cost whose nearest-neighbour path is
  exactly arrow's queuing order (Lemma 3.8);
* ``c_M`` (Def. 3.14): ``D + |t_i - t_j|`` — the Manhattan metric;
* ``c_O`` / ``c_Opt`` (eq. 3): ``max(D, t_i - t_j)`` with tree / graph
  distances respectively — the per-link lower bound on any offline
  algorithm's latency.

The matrices satisfy (and the property tests verify): ``0 <= c_T <= c_M``,
``c_M`` is a metric, ``c_O <= c_M``, and ``c_O`` with tree distances is at
most ``s`` times ``c_Opt`` with graph distances.
"""

from __future__ import annotations

import numpy as np

from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_distances, dijkstra
from repro.spanning.tree import SpanningTree

__all__ = [
    "augmented_nodes_times",
    "request_distance_matrix",
    "c_t_matrix",
    "c_m_matrix",
    "c_o_matrix",
    "path_cost",
    "order_to_indices",
]


def augmented_nodes_times(
    schedule: RequestSchedule, root: int
) -> tuple[np.ndarray, np.ndarray]:
    """Node and time vectors with the virtual root request at index 0."""
    nodes = np.array([root, *schedule.nodes], dtype=np.int64)
    times = np.array([0.0, *schedule.times], dtype=np.float64)
    return nodes, times


def request_distance_matrix(
    metric: SpanningTree | Graph, nodes: np.ndarray
) -> np.ndarray:
    """Dense distance matrix between the requests' issuing nodes.

    ``metric`` selects the tree metric ``d_T`` (pass a
    :class:`SpanningTree`: rows from its LCA table) or the graph metric
    ``d_G`` (pass a :class:`Graph`: rows by BFS when every weight is 1,
    by Dijkstra otherwise, decided once per matrix).
    """
    sources = {int(x) for x in nodes}
    if isinstance(metric, SpanningTree):
        per_src = {src: metric.distances_from(src) for src in sources}
    elif isinstance(metric, Graph):
        unit = metric.is_unit_weighted()
        per_src = {
            src: np.asarray(bfs_distances(metric, src) if unit else dijkstra(metric, src)[0])
            for src in sources
        }
    else:  # pragma: no cover - defensive
        raise AnalysisError(f"unsupported metric object {type(metric)!r}")
    m = len(nodes)
    out = np.empty((m, m), dtype=np.float64)
    for i in range(m):
        out[i, :] = per_src[int(nodes[i])][nodes]
    if not np.all(np.isfinite(out)):
        raise AnalysisError("distance matrix has unreachable pairs")
    return out


# ----------------------------------------------------------------------
# cost matrices
# ----------------------------------------------------------------------
def c_t_matrix(D: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The asymmetric arrow-order cost ``c_T`` (Definition 3.5).

    ``c_T[i, j] = t_j - t_i + D`` when that is non-negative, otherwise
    ``t_i - t_j + D``.  Always non-negative (Fact 3.6).
    """
    dt = times[None, :] - times[:, None]  # t_j - t_i
    d = dt + D
    return np.where(d >= 0.0, d, -dt + D)


def c_m_matrix(D: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The Manhattan metric ``c_M`` (Definition 3.14)."""
    return D + np.abs(times[None, :] - times[:, None])


def c_o_matrix(D: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The offline lower-bound cost (eq. 3): ``max(D, t_i - t_j)``.

    Entry ``[i, j]`` bounds the latency of request ``j`` when queued
    immediately after request ``i``: the successor cannot be announced
    before the predecessor exists (``t_i - t_j``) nor faster than
    information travels (``D[i, j]``).  Pass tree distances for ``c_O``,
    graph distances for ``c_Opt``.
    """
    dt = times[:, None] - times[None, :]  # t_i - t_j
    return np.maximum(D, dt)


# ----------------------------------------------------------------------
# order evaluation
# ----------------------------------------------------------------------
def order_to_indices(order_rids: list[int]) -> list[int]:
    """Queuing order (rids) -> augmented matrix indices, prepending root."""
    return [0] + [rid + 1 for rid in order_rids]


def path_cost(indices: list[int], C: np.ndarray) -> float:
    """Sum of ``C`` over consecutive pairs of an augmented index path."""
    if len(indices) < 2:
        return 0.0
    idx = np.asarray(indices)
    return float(C[idx[:-1], idx[1:]].sum())
