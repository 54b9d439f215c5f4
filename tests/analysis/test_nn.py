"""Unit tests for NN ordering and the fast arrow executor."""

import numpy as np
import pytest

from repro.analysis.nearest_neighbor import nn_order, predict_arrow_run
from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.spanning.tree import SpanningTree


def test_nn_order_simple_matrix():
    C = np.array(
        [
            [0.0, 5.0, 1.0, 9.0],
            [5.0, 0.0, 2.0, 3.0],
            [1.0, 2.0, 0.0, 7.0],
            [9.0, 3.0, 7.0, 0.0],
        ]
    )
    res = nn_order(C)
    assert res.indices == [0, 2, 1, 3]
    assert res.total_cost == pytest.approx(1 + 2 + 3)
    assert not res.had_ties


def test_nn_order_detects_and_breaks_ties():
    C = np.array(
        [
            [0.0, 2.0, 2.0],
            [2.0, 0.0, 1.0],
            [2.0, 1.0, 0.0],
        ]
    )
    lo = nn_order(C, tie_break="min")
    hi = nn_order(C, tie_break="max")
    assert lo.had_ties and hi.had_ties
    assert lo.indices == [0, 1, 2]
    assert hi.indices == [0, 2, 1]


def test_nn_order_validates_inputs():
    C = np.zeros((3, 3))
    with pytest.raises(AnalysisError):
        nn_order(C, start=5)
    with pytest.raises(AnalysisError):
        nn_order(C, tie_break="bogus")
    with pytest.raises(AnalysisError):
        nn_order(np.zeros((2, 3)))


def test_nn_order_from_nonzero_start():
    C = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 2.0], [4.0, 2.0, 0.0]])
    res = nn_order(C, start=2)
    assert res.indices[0] == 2


def test_predict_arrow_run_hand_instance():
    """Path 0-1-2-3-4, root 0, requests hand-traceable via c_T."""
    tree = SpanningTree([max(0, i - 1) for i in range(5)], root=0)
    sched = RequestSchedule([(4, 0.0), (1, 0.0)])
    # c_T(root, (1,0)) = 1 < c_T(root, (4,0)) = 4: request at 1 queued
    # first; then (4,0) behind it at c_T = 3.
    pred = predict_arrow_run(tree, sched)
    assert pred.order == [1, 0]
    assert pred.arrow_cost == pytest.approx(1 + 3)
    assert pred.t_last == 0.0
    assert pred.ct_total == pytest.approx(4.0)


def test_lemma_3_10_identity_on_prediction():
    """cost_arrow == C_T - t_last along arrow's own order."""
    tree = SpanningTree([max(0, i - 1) for i in range(7)], root=0)
    sched = RequestSchedule([(6, 0.0), (3, 2.0), (1, 2.5), (5, 6.0)])
    pred = predict_arrow_run(tree, sched)
    assert pred.arrow_cost == pytest.approx(pred.ct_total - pred.t_last)


def test_predict_empty_schedule():
    tree = SpanningTree([0], root=0)
    pred = predict_arrow_run(tree, RequestSchedule([]))
    assert pred.order == [] and pred.arrow_cost == 0.0


# ----------------------------------------------------------------------
# the O(|R|^2) NN path at experiment scales: the whole order comes back
# ----------------------------------------------------------------------
def test_nn_executor_on_large_schedule():
    from repro.workloads.schedules import random_times

    tree = SpanningTree([max(0, i - 1) for i in range(256)], root=0)
    sched = random_times(256, 1500, horizon=500.0, seed=0)
    assert len(predict_arrow_run(tree, sched).order) == 1500


def test_nn_executor_on_lowerbound_instance():
    from repro.lowerbound.layered import layered_instance

    inst = layered_instance(1024, 5)
    pred = predict_arrow_run(inst.tree, inst.schedule)
    assert len(pred.order) == len(inst.schedule)
