"""Analysis machinery of Sections 3–4: costs, NN characterisation, bounds."""

from repro.analysis.nearest_neighbor import predict_arrow_run, worst_case_arrow_cost
from repro.analysis.optimal import opt_bounds
from repro.analysis.verify import check_lemma_3_8

__all__ = ["check_lemma_3_8", "opt_bounds", "predict_arrow_run", "worst_case_arrow_cost"]
