"""The nearest-neighbour check of Lemma 3.8 on actual executions.

:func:`check_lemma_3_8` takes a simulated (or fast-executor) queuing
order and checks it is a nearest-neighbour path under ``c_T``; the
quickstart example runs it, and the integration and property-based test
suites call it across many random instances.  The checkers of the other
Section 3 claims (Fact 3.6, Lemmas 3.9 and 3.10, the direct-path
property) run only in tests and live in ``tests/lemma_oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.costs import (
    augmented_nodes_times,
    c_t_matrix,
    order_to_indices,
    request_distance_matrix,
)
from repro.core.requests import RequestSchedule
from repro.spanning.tree import SpanningTree

__all__ = ["is_nn_path", "check_lemma_3_8"]

#: Slack for float noise when comparing a path step or a latency to its claim.
TOL = 1e-9


def is_nn_path(indices: list[int], C: np.ndarray) -> bool:
    """True iff each step of the path goes to *a* nearest unvisited node.

    This is the correct check in the presence of ties: the path need not
    match a specific greedy run, it must just never skip a strictly closer
    candidate (eq. 6/7 of the paper).
    """
    m = C.shape[0]
    if sorted(indices) != list(range(m)):
        return False
    remaining = np.ones(m, dtype=bool)
    remaining[indices[0]] = False
    for pos in range(len(indices) - 1):
        cur, nxt = indices[pos], indices[pos + 1]
        row = C[cur]
        best = row[remaining].min()
        if row[nxt] > best + TOL:
            return False
        remaining[nxt] = False
    return True


def check_lemma_3_8(
    tree: SpanningTree, schedule: RequestSchedule, order: list[int]
) -> bool:
    """The simulated queuing order is an NN path under ``c_T`` (Lemma 3.8)."""
    nodes, times = augmented_nodes_times(schedule, tree.root)
    D = request_distance_matrix(tree, nodes)
    CT = c_t_matrix(D, times)
    return is_nn_path(order_to_indices(order), CT)
