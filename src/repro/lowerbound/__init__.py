"""Section 4 lower-bound constructions."""

from repro.lowerbound.comb import comb_cost_bound_formula, comb_mst_weight, comb_order
from repro.lowerbound.construction import (
    LowerBoundInstance,
    default_k,
    theorem41_instance,
    theorem41_requests,
)
from repro.lowerbound.layered import (
    layer_sweep_order,
    layered_instance,
    layered_requests,
)
from repro.lowerbound.stretch_graph import theorem42_instance

__all__ = [
    "comb_cost_bound_formula",
    "comb_mst_weight",
    "comb_order",
    "LowerBoundInstance",
    "default_k",
    "theorem41_instance",
    "theorem41_requests",
    "layer_sweep_order",
    "layered_instance",
    "layered_requests",
    "theorem42_instance",
]
