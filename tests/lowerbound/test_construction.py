"""Unit tests for the literal Theorem 4.1 construction.

Includes the reproduction-note regression: the literal transcription's
worst-case arrow cost is exactly ``2 D`` for deep recursions (it does not
force one sweep per layer), while ``k = 2`` realises the full ``k·D``.
This behaviour is documented in ``repro.lowerbound.layered``; these tests
pin it so any future reinterpretation of the construction shows up as a
diff here.
"""

import math

import pytest

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.core.requests import RequestSchedule
from repro.errors import ScheduleError
from repro.lowerbound.construction import (
    default_k,
    theorem41_instance,
    theorem41_requests,
)


def test_default_k_is_even_and_grows():
    ks = [default_k(D) for D in (16, 256, 4096, 2**16)]
    assert all(k % 2 == 0 for k in ks)
    assert ks == sorted(ks)
    assert default_k(2) == 2


def test_requires_power_of_two():
    with pytest.raises(ScheduleError):
        theorem41_requests(48)
    with pytest.raises(ScheduleError):
        theorem41_requests(0)


def test_requires_even_positive_k():
    with pytest.raises(ScheduleError):
        theorem41_requests(16, k=3)
    with pytest.raises(ScheduleError):
        theorem41_requests(16, k=0)


def test_layer_counts_follow_binomials():
    """Layer t holds C(log D, k - t) recursion dots (plus boundaries)."""
    D, k = 64, 6
    pairs = theorem41_requests(D, k)
    logd = int(math.log2(D))
    by_time = {}
    for p, t in pairs:
        by_time.setdefault(t, set()).add(p)
    for t in range(k + 1):
        interior = {p for p in by_time[float(t)] if p not in (0, D)}
        want = math.comb(logd, k - t)
        # boundary dots may coincide with recursion dots only at 0 / D.
        assert len(interior) <= want
        if t == k:
            assert by_time[float(t)] == {D}


def test_boundary_columns_present():
    pairs = set(theorem41_requests(16, 2))
    for t in range(2):
        assert (0, float(t)) in pairs
        assert (16, float(t)) in pairs


def test_positions_stay_on_path():
    for D in (16, 64, 256):
        for p, _ in theorem41_requests(D):
            assert 0 <= p <= D


def test_instance_wires_graph_tree_schedule():
    inst = theorem41_instance(16, 2)
    assert inst.graph.num_nodes == 17
    assert inst.tree.root == 0
    assert inst.k * inst.D == 32
    assert isinstance(inst.schedule, RequestSchedule)


def test_k2_realises_full_kd_cost():
    """k = 2 instances force the full k*D sweep cost (ratio exactly 2)."""
    for D in (16, 64, 256):
        inst = theorem41_instance(D, 2)
        pred = predict_arrow_run(inst.tree, inst.schedule, tie_break="min")
        assert pred.arrow_cost == pytest.approx(2.0 * D)


def test_literal_deep_recursion_caps_at_2d():
    """Reproduction-note regression (see module docstring)."""
    for D, k in ((64, 6), (256, 4)):
        inst = theorem41_instance(D, k)
        lo = predict_arrow_run(inst.tree, inst.schedule, tie_break="min")
        hi = predict_arrow_run(inst.tree, inst.schedule, tie_break="max")
        assert max(lo.arrow_cost, hi.arrow_cost) <= 2.0 * D + 1e-9
