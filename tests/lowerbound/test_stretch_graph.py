"""Unit tests for the Theorem 4.2 stretch construction."""

import pytest

from repro.errors import ScheduleError
from repro.lowerbound.stretch_graph import theorem42_instance
from repro.spanning.metrics import tree_stretch


@pytest.mark.parametrize("s", [1, 2, 4, 8])
def test_tree_stretch_equals_s(s):
    inst = theorem42_instance(16, s)
    assert tree_stretch(inst.graph, inst.tree).stretch == float(max(1, s))


def test_dimensions():
    inst = theorem42_instance(16, 4)
    assert inst.D == 64
    assert inst.graph.num_nodes == 65
    # Shortcuts exist between consecutive multiples of s.
    assert inst.graph.has_edge(0, 4)
    assert inst.graph.has_edge(60, 64)


def test_requests_placed_on_shortcut_endpoints():
    inst = theorem42_instance(16, 4)
    for r in inst.schedule:
        assert r.node % 4 == 0


def test_invalid_stretch_rejected():
    with pytest.raises(ScheduleError):
        theorem42_instance(16, 0)


def test_ratio_scales_with_stretch():
    from repro.analysis import worst_case_arrow_cost
    from repro.analysis.optimal import opt_bounds

    ratios = []
    for s in (1, 4):
        inst = theorem42_instance(16, s)
        cost = worst_case_arrow_cost(inst.tree, inst.schedule)
        stretch = tree_stretch(inst.graph, inst.tree).stretch
        ob = opt_bounds(inst.graph, inst.tree, inst.schedule, stretch, exact_limit=0)
        ratios.append(cost / ob.upper)
    assert ratios[1] >= 2.0 * ratios[0]
