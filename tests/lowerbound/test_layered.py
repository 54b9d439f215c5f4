"""Unit tests for the bitonic layered reconstruction."""

import pytest

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.optimal import opt_bounds
from repro.core.requests import RequestSchedule
from repro.errors import ScheduleError
from repro.lowerbound.layered import layered_instance, layered_requests
from lemma_oracles import arrow_cost_of_order


def layer_sweep_order(schedule: RequestSchedule) -> list[int]:
    """The proof's intended order: by time layer, alternating direction.

    Even layers left-to-right, odd layers right-to-left — the order whose
    cost is the ``(k+1)·D`` sweep target the instances are built for.
    """
    by_layer: dict[float, list] = {}
    for r in schedule:
        by_layer.setdefault(r.time, []).append(r)
    order: list[int] = []
    for t in sorted(by_layer):
        layer = sorted(by_layer[t], key=lambda r: r.node, reverse=(int(t) % 2 == 1))
        order.extend(r.rid for r in layer)
    return order


def test_validates_parameters():
    with pytest.raises(ScheduleError):
        layered_requests(10, 2)
    with pytest.raises(ScheduleError):
        layered_requests(16, 0)


def test_dots_are_unique_positions_per_layer():
    pairs = layered_requests(64, 3)
    seen = set()
    for p, t in pairs:
        assert (p, t) not in seen
        seen.add((p, t))
        assert 0 <= p <= 64


def test_refinement_dots_hug_anchors():
    """Every layer has dots at distance 1 from both path endpoints."""
    pairs = set(layered_requests(64, 3))
    for t in (0.0, 1.0, 2.0):
        assert (1, t) in pairs or (0, t) in pairs
        assert (63, t) in pairs or (64, t) in pairs


def test_sweep_order_costs_one_sweep_per_layer():
    inst = layered_instance(64, 3)
    order = layer_sweep_order(inst.schedule)
    cost = arrow_cost_of_order(inst.tree, inst.schedule, order)
    # Each refinement layer spans the path once: cost ~ k D, plus at most
    # one extra D when the final request lands opposite the last sweep.
    assert cost >= inst.k * inst.D - inst.k
    assert cost <= inst.k * inst.D + 64 + inst.k


def test_realised_ratio_exceeds_literal_construction():
    from repro.lowerbound.construction import theorem41_instance

    D, k = 256, 4
    lay = layered_instance(D, k)
    lit = theorem41_instance(D, k)
    lay_cost = predict_arrow_run(lay.tree, lay.schedule, tie_break="min").arrow_cost
    lit_cost = max(
        predict_arrow_run(lit.tree, lit.schedule, tie_break=tb).arrow_cost
        for tb in ("min", "max")
    )
    lay_opt = opt_bounds(lay.graph, lay.tree, lay.schedule, 1.0, exact_limit=0)
    lit_opt = opt_bounds(lit.graph, lit.tree, lit.schedule, 1.0, exact_limit=0)
    assert lay_cost / lay_opt.upper > lit_cost / lit_opt.upper


def test_ratio_grows_with_diameter():
    """The lower-bound shape: measured ratio increases with D."""
    ratios = []
    for D, k in ((64, 3), (1024, 5)):
        inst = layered_instance(D, k)
        cost = predict_arrow_run(inst.tree, inst.schedule, tie_break="min").arrow_cost
        ob = opt_bounds(inst.graph, inst.tree, inst.schedule, 1.0, exact_limit=0)
        ratios.append(cost / ob.upper)
    assert ratios[-1] > ratios[0]
    assert ratios[-1] > 2.5  # well past the literal construction's flat 2.0


def test_opt_stays_linear_in_d():
    """The instances keep the optimal cost O(D) (the separation's other half)."""
    for D, k in ((64, 3), (256, 4)):
        inst = layered_instance(D, k)
        ob = opt_bounds(inst.graph, inst.tree, inst.schedule, 1.0, exact_limit=0)
        assert ob.upper <= 3.0 * D
