"""The optimal offline queuing algorithm: exact solvers and bounds.

The paper's competitor (§3.3) is an omniscient offline algorithm that
knows every request in advance, orders them to minimise total latency, and
communicates over the full graph ``G``.  Its cost for placing request
``r_j`` right after ``r_i`` is at least ``c_Opt(r_i, r_j) = max(d_G(v_i,
v_j), t_i - t_j)`` (Fact 3.4) — and exactly that value is achievable by an
algorithm that knows the order up front, so

    cost_Opt = min over permutations π of  Σ c_Opt(r_π(i-1), r_π(i)).

This module provides:

* :func:`held_karp_path` — exact minimum-cost Hamiltonian path under any
  asymmetric cost matrix (a bitmask DP, exponential: use for ≤ ~14
  requests);
* :func:`best_heuristic_path` — NN + or-opt improvement, a certified
  *upper* bound on ``cost_Opt`` for larger instances (:func:`or_opt_improve`
  scores every insertion point of an element in one array expression);
* :func:`manhattan_mst_weight` — MST weight under the Manhattan metric,
  powering the paper's *lower*-bound chain (Lemmas 3.15–3.17):

      cost_Opt  >=  C_O(π_O) / s  >=  C_M(π_O) / (12 s)  >=  MST_M / (12 s);

* :func:`opt_bounds` / :class:`OptBounds` — both sides bundled, used by the
  competitive-ratio experiments to bracket the true ratio, with two
  elementary lower bounds beside the chain: each request's cheapest
  incoming ``c_Opt`` arc (one column minimum of ``C_Opt`` with its
  diagonal masked) summed, and the root's furthest request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.costs import (
    augmented_nodes_times,
    c_m_matrix,
    c_o_matrix,
    path_cost,
    request_distance_matrix,
)
from repro.analysis.nearest_neighbor import nn_order
from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.graphs.graph import Graph
from repro.spanning.tree import SpanningTree

__all__ = [
    "held_karp_path",
    "or_opt_improve",
    "best_heuristic_path",
    "manhattan_mst_weight",
    "OptBounds",
    "opt_bounds",
]

#: Or-opt's passes over the path at most.
OR_OPT_ROUNDS = 8


def held_karp_path(C: np.ndarray) -> tuple[float, list[int]]:
    """Exact min-cost Hamiltonian path from index 0 under asymmetric ``C``.

    Returns the optimal cost and the realising augmented index path
    (starting with 0).  A bitmask dynamic program over the non-root
    indices: ``O(2^k k^2)`` time and ``O(2^k k)`` memory for ``k = m - 1``.
    """
    if C.shape[0] < 2:
        return 0.0, [0]
    k = C.shape[0] - 1
    if k > 20:  # hard safety: 2^20 states of k floats is already ~170 MB
        raise AnalysisError(f"held_karp_path: {k} requests is too large")
    # dp[mask, j] = min cost of a path 0 -> ... -> (j+1) visiting exactly
    # the request set `mask` (bit j <-> augmented index j+1).  Pull form:
    # dp[mask, j] = min_i dp[mask ^ (1<<j), i] + C[i+1, j+1].
    size = 1 << k
    dp = np.full((size, k), np.inf)
    parent = np.full((size, k), -1, dtype=np.int32)
    Csub = C[1:, 1:]  # request-to-request block
    for j in range(k):
        dp[1 << j, j] = C[0, j + 1]
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue  # singleton: initialised above
        bits = mask
        while bits:
            j = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            prev = mask ^ (1 << j)
            vals = dp[prev] + Csub[:, j]
            i = int(np.argmin(vals))
            dp[mask, j] = vals[i]
            parent[mask, j] = i
    full = size - 1
    end = int(np.argmin(dp[full]))
    best = float(dp[full, end])
    # Reconstruct the optimal path backwards through the parent table.
    path = [end + 1]
    mask, j = full, end
    while parent[mask, j] >= 0:
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
        path.append(j + 1)
    path.append(0)
    path.reverse()
    return best, path


def or_opt_improve(indices: list[int], C: np.ndarray) -> tuple[float, list[int]]:
    """Or-opt local search: relocate single elements (asymmetric-safe).

    2-opt segment reversal is invalid under asymmetric costs (reversing a
    segment changes its internal cost), so we use single-element
    relocation, which only touches three splice points.  The root (index
    position 0) never moves.  The gains of all insertion points of
    ``path[i]`` are one array expression; the first point with the largest
    gain above ``1e-12`` wins.
    """
    path = list(indices)
    m = len(path)
    if m <= 2:
        return path_cost(path, C), path
    improved = True
    rounds = 0
    while improved and rounds < OR_OPT_ROUNDS:
        improved = False
        rounds += 1
        for i in range(1, m):
            P = np.asarray(path)
            a, b = P[i - 1], P[i]
            if i + 1 < m:
                c = P[i + 1]
                removed, broken = C[a, b] + C[b, c], C[a, c]
            else:
                removed, broken = C[a, b], 0.0
            # added[j] / old[j]: the arcs that inserting b after path[j]
            # creates / breaks; after the last element nothing breaks.
            added = C[P, b]
            added[:-1] += C[b, P[1:]]
            old = np.append(C[P[:-1], P[1:]], 0.0)
            gain = (removed - broken) - (added - old)
            gain[i - 1 : i + 1] = -np.inf  # b's own slot: no move
            j = int(np.argmax(gain))
            if gain[j] > 1e-12:
                path.insert(j + 1 if j < i else j, path.pop(i))
                improved = True
    return path_cost(path, C), path


def best_heuristic_path(C: np.ndarray) -> tuple[float, list[int]]:
    """Best of {canonical order, NN, NN + or-opt}: an Opt upper bound."""
    m = C.shape[0]
    ident = list(range(m))
    cand: list[tuple[float, list[int]]] = [(path_cost(ident, C), ident)]
    nn = nn_order(C, start=0)
    cand.append((nn.total_cost, nn.indices))
    cand.append(or_opt_improve(nn.indices, C))
    cand.sort(key=lambda x: x[0])
    return cand[0]


def manhattan_mst_weight(CM: np.ndarray) -> float:
    """MST weight of the complete request graph under the Manhattan metric.

    Dense Prim in O(m^2) with numpy rows.  Any queuing order is a
    Hamiltonian path, i.e. a spanning tree of this complete graph, so the
    MST weight lower-bounds ``C_M(π)`` for *every* order π.
    """
    m = CM.shape[0]
    if m <= 1:
        return 0.0
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best = CM[0].astype(np.float64).copy()
    best[0] = np.inf
    total = 0.0
    for _ in range(m - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        total += float(masked[j])
        in_tree[j] = True
        best = np.minimum(best, CM[j])
    return total


@dataclass(frozen=True, slots=True)
class OptBounds:
    """Bracketing of the optimal offline cost for one instance."""

    #: Certified lower bound on cost_Opt (max of the bound family).
    lower: float
    #: Certified upper bound (cost of a concrete achievable order).
    upper: float
    #: True when `upper` comes from the exact Held–Karp solver, in which
    #: case lower == upper == cost_Opt.
    exact: bool
    #: Individual lower bounds, keyed by name (for diagnostics).
    parts: dict[str, float]

    def ratio_bracket(self, protocol_cost: float) -> tuple[float, float]:
        """(lowest, highest) possible competitive ratio for a given cost."""
        hi = protocol_cost / self.lower if self.lower > 0 else float("inf")
        lo = protocol_cost / self.upper if self.upper > 0 else float("inf")
        return lo, hi


def opt_bounds(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    stretch: float,
    *,
    exact_limit: int,
    tree_distances: np.ndarray | None = None,
) -> OptBounds:
    """Bracket the optimal offline cost of a schedule (see module docs).

    ``stretch`` is the tree's stretch w.r.t. the graph (Definition 3.1);
    it enters the Manhattan-MST lower bound via Lemma 3.17's chain.
    Schedules of at most ``exact_limit`` requests are solved exactly by
    Held–Karp (``2^m`` states); ``0`` never solves exactly.
    ``tree_distances`` is the request ``d_T`` matrix when the caller
    already built it (``request_distance_matrix`` over the
    :func:`~repro.analysis.costs.augmented_nodes_times` nodes).  A
    unit-weighted graph with ``n - 1`` edges is its spanning tree, so
    its ``d_G`` is that matrix (both are hop counts, equal bit for bit);
    any other graph gets ``d_G`` by BFS or Dijkstra.
    """
    if len(schedule) == 0:
        return OptBounds(0.0, 0.0, True, {})
    nodes, times = augmented_nodes_times(schedule, tree.root)
    DT = request_distance_matrix(tree, nodes) if tree_distances is None else tree_distances
    if graph.num_edges == graph.num_nodes - 1 and graph.is_unit_weighted():
        DG = DT
    else:
        DG = request_distance_matrix(graph, nodes)
    C_opt = c_o_matrix(DG, times)
    CM_tree = c_m_matrix(DT, times)

    parts: dict[str, float] = {}
    # Lemma 3.15/3.16/3.17 chain with tree distances, divided by stretch.
    parts["mst_manhattan"] = manhattan_mst_weight(CM_tree) / (12.0 * stretch)
    # Elementary bounds: the furthest request from the root must be reached,
    # and each request's own best-case latency is its cheapest c_Opt entry.
    off_diagonal = np.where(np.eye(len(C_opt), dtype=bool), np.inf, C_opt)
    parts["per_request_min"] = float(off_diagonal[:, 1:].min(axis=0).sum())
    parts["root_reach"] = float(DG[0].max())

    if len(schedule) <= exact_limit:
        exact_cost, _ = held_karp_path(C_opt)
        parts["exact"] = exact_cost
        return OptBounds(exact_cost, exact_cost, True, parts)

    upper, _ = best_heuristic_path(C_opt)
    lower = max(parts.values())
    lower = min(lower, upper)  # numeric safety: keep the bracket ordered
    return OptBounds(lower, upper, False, parts)
