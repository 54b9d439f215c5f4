"""Section 4 lower-bound constructions."""

from repro.lowerbound.comb import comb_mst_weight
from repro.lowerbound.construction import default_k, theorem41_instance
from repro.lowerbound.layered import layered_instance
from repro.lowerbound.stretch_graph import theorem42_instance

__all__ = [
    "comb_mst_weight",
    "default_k",
    "layered_instance",
    "theorem41_instance",
    "theorem42_instance",
]
