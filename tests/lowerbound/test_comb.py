"""Unit tests for the comb MST bound."""


from repro.core.requests import RequestSchedule
from repro.lowerbound.comb import comb_mst_weight
from repro.lowerbound.construction import theorem41_instance


def test_comb_weight_hand_instance():
    # Requests at nodes 2 (times 0, 3) and 5 (time 1): horizontal span
    # 0..5 (root at 0) = 5; vertical extents 3 + 0.
    sched = RequestSchedule([(2, 0.0), (5, 1.0), (2, 3.0)])
    assert comb_mst_weight(sched, root_pos=0) == 5.0 + 3.0


def test_comb_weight_empty():
    assert comb_mst_weight(RequestSchedule([])) == 0.0


def test_comb_weight_linear_in_d_on_theorem41():
    for D in (16, 64, 256):
        inst = theorem41_instance(D)
        w = comb_mst_weight(inst.schedule)
        assert w <= D + inst.k * (inst.k + 1) * 2 + 4 * D  # O(D)
        assert w >= D  # the horizontal chain alone spans the path
