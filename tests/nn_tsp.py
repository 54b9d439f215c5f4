"""Theorem 3.18 oracle: the generalised nearest-neighbour TSP bound.

Rosenkrantz et al. bound the NN heuristic by ``O(log N)`` times the optimal
tour when the cost is a metric.  The paper needs more: arrow's NN path uses
the *non-metric* cost ``c_T``, which is merely dominated by the Manhattan
metric ``c_M``.  Theorem 3.18 handles exactly this setting:

    Let ``d_n`` and ``d_o`` be distance functions with ``d_o`` a metric,
    ``0 <= d_n <= d_o`` and ``d_o(u, u) = 0``.  Let ``C_N`` be the length of
    a NN tour under ``d_n`` and ``C_O`` the optimal tour length under
    ``d_o``.  Then  ``C_N <= (3/2) * ceil(log2(D_NN / d_NN)) * C_O``,
    where ``D_NN``/``d_NN`` are the longest/shortest non-zero NN-tour edge.

This module builds NN tours, exact/heuristic optimal tours, and checks the
bound — both on synthetic ``(d_n, d_o)`` pairs and on the actual
``(c_T, c_M)`` pairs produced by arrow executions
(``tests/analysis/test_nn_tsp.py``).  No table reads the bound yet, so it
lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.nearest_neighbor import nn_order
from repro.analysis.optimal import best_heuristic_path, held_karp_path
from repro.errors import AnalysisError

#: Slack for float noise in :func:`validate_dominated_pair`'s hypothesis checks.
TOL = 1e-9


def tour_cost(indices: list[int], C: np.ndarray) -> float:
    """Cost of the closed tour visiting ``indices`` and returning to start."""
    total = 0.0
    m = len(indices)
    for i in range(m):
        total += float(C[indices[i], indices[(i + 1) % m]])
    return total


def nn_tour(C: np.ndarray, start: int = 0) -> tuple[float, list[int], float, float]:
    """NN tour from ``start``: greedy path plus the closing edge.

    Returns ``(cost, indices, max_edge, min_nonzero_edge)`` where the edge
    statistics include the closing edge (they parameterise the bound).
    """
    nn = nn_order(C, start=start)
    closing = float(C[nn.indices[-1], start])
    edges = [float(C[a, b]) for a, b in zip(nn.indices, nn.indices[1:])] + [closing]
    min_nonzero = min((e for e in edges if e > 0.0), default=0.0)
    return nn.total_cost + closing, nn.indices, max(edges), min_nonzero


def held_karp_tour_cost(C: np.ndarray) -> float:
    """Exact min-cost closed tour through every index of asymmetric ``C``.

    ``held_karp_path`` over ``C`` with index ``m`` appended as a copy of
    index 0 that only arrives: no arc leaves it, so every finite path ends
    there and its cost is a tour's.
    """
    m = C.shape[0]
    if m < 2:
        return 0.0
    closed = np.full((m + 1, m + 1), np.inf)
    closed[:m, :m] = C
    closed[:m, m] = C[:, 0]
    return held_karp_path(closed)[0]


def optimal_tour_cost(C: np.ndarray, exact_limit: int = 12) -> float:
    """Optimal (or best-found) tour cost under ``C``.

    Exact (the Held–Karp table, closed at its best endpoint) while
    ``m - 1 <= exact_limit``; otherwise the or-opt heuristic path closed
    into a tour — an upper bound on the optimum, so a Theorem 3.18 check
    against it certifies nothing.  Callers that need a certified check
    must stay within ``exact_limit``.
    """
    m = C.shape[0]
    if m <= 2:
        return tour_cost(list(range(m)), C)
    if m - 1 <= exact_limit:
        return held_karp_tour_cost(C)
    cost, path = best_heuristic_path(C)
    return cost + float(C[path[-1], 0])


@dataclass(frozen=True, slots=True)
class Theorem318Report:
    """Outcome of one Theorem 3.18 check."""

    nn_cost: float
    opt_cost: float
    bound_factor: float
    bound_value: float
    ratio: float
    holds: bool
    max_edge: float
    min_nonzero_edge: float


def validate_dominated_pair(Dn: np.ndarray, Do: np.ndarray) -> None:
    """Check the theorem's hypotheses on ``(d_n, d_o)``.

    ``d_o`` symmetric, triangle inequality, zero diagonal;
    ``0 <= d_n <= d_o``.  Raises :class:`AnalysisError` on violation.
    """
    if Dn.shape != Do.shape or Dn.shape[0] != Dn.shape[1]:
        raise AnalysisError("distance matrices must be square and same shape")
    if not np.allclose(Do, Do.T, atol=TOL):
        raise AnalysisError("d_o must be symmetric")
    if not np.all(np.abs(np.diag(Do)) <= TOL):
        raise AnalysisError("d_o must have zero diagonal")
    if np.any(Dn < -TOL):
        raise AnalysisError("d_n must be non-negative")
    if np.any(Dn > Do + TOL):
        raise AnalysisError("d_n must be dominated by d_o")
    # Triangle inequality: d_o(u,w) <= d_o(u,v) + d_o(v,w) for all v.
    m = Do.shape[0]
    for v in range(m):
        via = Do[:, v][:, None] + Do[v, :][None, :]
        if np.any(Do > via + TOL):
            raise AnalysisError("d_o violates the triangle inequality")


def check_theorem_318(
    Dn: np.ndarray,
    Do: np.ndarray,
    *,
    start: int = 0,
    exact_limit: int = 12,
) -> Theorem318Report:
    """Verify ``C_N <= (3/2) ceil(log2(D_NN/d_NN)) C_O`` on one instance.

    The pair's hypotheses are checked first (:func:`validate_dominated_pair`).
    """
    validate_dominated_pair(Dn, Do)
    nn_cost, _, max_edge, min_nonzero = nn_tour(Dn, start=start)
    opt_cost = optimal_tour_cost(Do, exact_limit=exact_limit)
    if max_edge <= 0.0:
        factor = 1.0  # all-zero NN tour: bound trivially holds
    else:
        if min_nonzero <= 0.0:
            min_nonzero = max_edge
        # Number of length classes [2^{i-1} d, 2^i d) needed to cover all
        # non-zero NN edges; each class costs at most (3/2) C_O.
        classes = math.floor(math.log2(max_edge / min_nonzero) + 1e-12) + 1
        factor = 1.5 * max(1, classes)
    bound_value = factor * opt_cost
    ratio = nn_cost / opt_cost if opt_cost > 0 else (0.0 if nn_cost == 0 else math.inf)
    holds = nn_cost <= bound_value + 1e-9 or nn_cost == 0.0
    return Theorem318Report(
        nn_cost=nn_cost,
        opt_cost=opt_cost,
        bound_factor=factor,
        bound_value=bound_value,
        ratio=ratio,
        holds=holds,
        max_edge=max_edge,
        min_nonzero_edge=min_nonzero,
    )
