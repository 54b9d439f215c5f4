"""The nearest-neighbour characterisation of arrow's queuing order.

Lemma 3.8 (and 3.20 for the asynchronous case) is the paper's key
structural insight: the order in which the arrow protocol queues requests
is a nearest-neighbour TSP path over the requests under the asymmetric
cost ``c_T``, starting from the virtual root request.

:func:`nn_order` computes such a path for any cost matrix; ties are broken
toward the lowest canonical index, and flagged, because with ties arrow's
actual order is *some* NN path but not necessarily this one — the
integration tests therefore compare orders only on tie-free instances and
otherwise just check the NN property of the simulated order.

:func:`predict_arrow_run` is the **fast executor**: it reproduces arrow's
order and cost (Lemma 3.10) in ``O(|R|^2)`` numpy work without message-
level simulation, which makes the large lower-bound sweeps tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.costs import (
    augmented_nodes_times,
    c_t_matrix,
    path_cost,
    request_distance_matrix,
)
from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.spanning.tree import SpanningTree

__all__ = [
    "NNResult",
    "nn_order",
    "PredictedRun",
    "predict_arrow_run",
    "worst_case_arrow_cost",
]


@dataclass(frozen=True, slots=True)
class NNResult:
    """A nearest-neighbour path and tie diagnostics."""

    indices: list[int]
    total_cost: float
    had_ties: bool


def nn_order(C: np.ndarray, start: int = 0, tie_break: str = "min") -> NNResult:
    """Greedy nearest-neighbour path under cost matrix ``C``.

    Starts at ``start`` and repeatedly moves to a cheapest unvisited index.
    ``tie_break`` selects among cost-tied candidates: ``"min"`` (lowest
    canonical index = earliest issue time) or ``"max"`` (highest index).
    Lemma 3.8 leaves tie resolution to the message scheduler, so *every*
    tie-break policy corresponds to a legal arrow execution; the
    lower-bound experiments use ``"max"`` as an adversarial scheduler.
    """
    m = C.shape[0]
    if C.shape != (m, m):
        raise AnalysisError("cost matrix must be square")
    if not 0 <= start < m:
        raise AnalysisError(f"start index {start} out of range")
    if tie_break not in ("min", "max"):
        raise AnalysisError(f"unknown tie_break {tie_break!r}")
    visited = np.zeros(m, dtype=bool)
    visited[start] = True
    indices = [start]
    total = 0.0
    had_ties = False
    cur = start
    big = np.inf
    for _ in range(m - 1):
        row = np.where(visited, big, C[cur])
        nxt = int(np.argmin(row))
        best = row[nxt]
        # Tie diagnostics: more than one unvisited index achieving the min.
        ties = np.nonzero(row == best)[0]
        if len(ties) > 1:
            had_ties = True
            if tie_break == "max":
                nxt = int(ties[-1])
        visited[nxt] = True
        indices.append(nxt)
        total += float(best)
        cur = nxt
    return NNResult(indices, total, had_ties)


@dataclass(frozen=True, slots=True)
class PredictedRun:
    """Fast-executor prediction of an arrow execution (synchronous model)."""

    #: Queuing order as canonical rids (root request excluded).
    order: list[int]
    #: Arrow's total latency cost (eq. 2): sum of tree distances between
    #: consecutive requests in the order.
    arrow_cost: float
    #: Total c_T along the NN path (C_T of Lemma 3.10).
    ct_total: float
    #: Issue time of the last request in arrow's order.
    t_last: float
    #: Whether any NN step had ties (order then matches *a* valid arrow
    #: execution, not necessarily a specific simulated one).
    had_ties: bool


def predict_arrow_run(
    tree: SpanningTree,
    schedule: RequestSchedule,
    tie_break: str = "min",
    *,
    tree_distances: np.ndarray | None = None,
) -> PredictedRun:
    """Predict arrow's order and cost via the NN characterisation.

    Returns the order (Lemma 3.8), arrow's total latency (eq. 2) and the
    ``C_T`` path total; the identity ``arrow_cost = C_T - t_last``
    (Lemma 3.10, as derived in its proof) is verified by the tests against
    both this executor and the message-level simulation.  ``tie_break``
    selects the simulated message scheduler among the legal ones (see
    :func:`nn_order`).  ``tree_distances`` is the request ``d_T`` matrix
    when the caller already built it (as in
    :func:`~repro.analysis.optimal.opt_bounds`).
    """
    nodes, times = augmented_nodes_times(schedule, tree.root)
    D = request_distance_matrix(tree, nodes) if tree_distances is None else tree_distances
    CT = c_t_matrix(D, times)
    nn = nn_order(CT, start=0, tie_break=tie_break)
    order = [i - 1 for i in nn.indices[1:]]
    arrow_cost = path_cost(nn.indices, D)
    t_last = float(times[nn.indices[-1]]) if len(nn.indices) > 1 else 0.0
    return PredictedRun(
        order=order,
        arrow_cost=arrow_cost,
        ct_total=nn.total_cost,
        t_last=t_last,
        had_ties=nn.had_ties,
    )


def worst_case_arrow_cost(tree: SpanningTree, schedule: RequestSchedule) -> float:
    """Max arrow cost over the executor's tie-breaking policies.

    Every tie-break policy corresponds to a legal arrow execution
    (Lemma 3.8 leaves simultaneity resolution to the scheduler), so the
    max over policies is a certified lower bound on the worst case.
    """
    lo = predict_arrow_run(tree, schedule, tie_break="min").arrow_cost
    hi = predict_arrow_run(tree, schedule, tie_break="max").arrow_cost
    return max(lo, hi)
