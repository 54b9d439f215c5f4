"""Checkers of the paper's Section 3 claims that only tests run.

``repro.analysis.verify`` keeps :func:`check_lemma_3_8`, which the
quickstart example runs; these take a simulated (or fast-executor) run
and check the rest of Section 3 on it.  The exhaustive corpus
(``tests/small_models.py``), the integration suites and the
property-based suites call them across many instances:

* :func:`check_fact_3_6` — ``c_T >= 0`` everywhere;
* :func:`check_lemma_3_9` — time-separated requests are ordered by time;
* :func:`lemma_3_10_identity_gap` — the ``c_T`` path total telescopes to
  ``t_last`` plus arrow's cost;
* :func:`arrow_cost_of_order` and :func:`max_ct_edge_on_order` — an
  order's arrow cost and its largest ``c_T`` step (Lemma 3.13);
* :func:`check_direct_path_property` — the synchronous direct-path
  theorem ([4], eq. 1).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.costs import (
    augmented_nodes_times,
    c_t_matrix,
    order_to_indices,
    path_cost,
    request_distance_matrix,
)
from repro.analysis.verify import TOL
from repro.core.queueing import RunResult
from repro.core.requests import RequestSchedule
from repro.spanning.tree import SpanningTree
from tree_oracles import hop_distance


def check_lemma_3_9(
    tree: SpanningTree, schedule: RequestSchedule, order: list[int]
) -> bool:
    """Time-separated requests are ordered by time (Lemma 3.9).

    For every pair with ``t_j - t_i > d_T(v_i, v_j)``, request ``i``
    precedes request ``j`` in the queuing order.
    """
    pos = {rid: k for k, rid in enumerate(order)}
    reqs = list(schedule)
    for a in range(len(reqs)):
        for b in range(len(reqs)):
            ri, rj = reqs[a], reqs[b]
            if rj.time - ri.time > tree.distance(ri.node, rj.node):
                if pos[ri.rid] > pos[rj.rid]:
                    return False
    return True


def check_fact_3_6(tree: SpanningTree, schedule: RequestSchedule) -> bool:
    """``c_T >= 0`` everywhere (Fact 3.6)."""
    nodes, times = augmented_nodes_times(schedule, tree.root)
    D = request_distance_matrix(tree, nodes)
    CT = c_t_matrix(D, times)
    return bool(np.all(CT >= -1e-12))


def arrow_cost_of_order(
    tree: SpanningTree, schedule: RequestSchedule, order: list[int]
) -> float:
    """Arrow's total latency for a given order (eq. 2): Σ consecutive d_T."""
    nodes, _ = augmented_nodes_times(schedule, tree.root)
    D = request_distance_matrix(tree, nodes)
    return path_cost(order_to_indices(order), D)


def lemma_3_10_identity_gap(
    tree: SpanningTree, schedule: RequestSchedule, order: list[int]
) -> float:
    """|cost_arrow - (C_T - t_last)| for the given order.

    Lemma 3.10 (as derived in its proof): the ``c_T`` path total
    telescopes to
    ``t_last + Σ d_T = t_last + cost_arrow``.  Returns the numeric gap,
    which should be ~0.
    """
    nodes, times = augmented_nodes_times(schedule, tree.root)
    D = request_distance_matrix(tree, nodes)
    CT = c_t_matrix(D, times)
    idx = order_to_indices(order)
    ct_total = path_cost(idx, CT)
    cost_arrow = path_cost(idx, D)
    t_last = float(times[idx[-1]])
    return abs(cost_arrow - (ct_total - t_last))


def max_ct_edge_on_order(
    tree: SpanningTree, schedule: RequestSchedule, order: list[int]
) -> float:
    """Largest single ``c_T`` edge along the order (Lemma 3.13's quantity)."""
    nodes, times = augmented_nodes_times(schedule, tree.root)
    D = request_distance_matrix(tree, nodes)
    CT = c_t_matrix(D, times)
    idx = order_to_indices(order)
    if len(idx) < 2:
        return 0.0
    arr = np.asarray(idx)
    return float(CT[arr[:-1], arr[1:]].max())


def check_direct_path_property(tree: SpanningTree, result: RunResult) -> bool:
    """Synchronous direct-path theorem ([4], eq. 1).

    In the synchronous model each request's latency equals the tree
    distance between its issuing node and its predecessor's issuer, and
    the hop count equals the hop distance.  Requires a unit-latency,
    zero-service-time run.
    """
    nodes, times = result.schedule.nodes, result.schedule.times
    for rid, informed, at, hops in zip(
        result.rids, result.informed_nodes, result.completed_at, result.hops
    ):
        want_lat = tree.distance(nodes[rid], informed)
        want_hops = hop_distance(tree, nodes[rid], informed)
        if abs(at - times[rid] - want_lat) > TOL or hops != want_hops:
            return False
    return True
