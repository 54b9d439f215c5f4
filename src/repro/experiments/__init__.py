"""Experiment harness: one module per paper theorem/analysis.

The measured figures (Fig. 10, Fig. 11, the §5.1 directory comparison)
are sweep grids tabulated by :func:`repro.results.figure_from_rows`.
"""

from repro.experiments.ablations import (
    run_protocol_ablation,
    run_service_time_ablation,
    run_tree_ablation,
)
from repro.experiments.ascii_plot import plot
from repro.experiments.competitive import run_async_comparison, run_competitive_sweep
from repro.experiments.fig9 import Fig9Report, render_instance, run_fig9
from repro.experiments.lowerbound_sweep import (
    run_theorem41_sweep,
    run_theorem42_sweep,
    worst_case_arrow_cost,
)
from repro.experiments.one_shot_analysis import run_one_shot_analysis
from repro.experiments.records import ExperimentResult, Series
from repro.experiments.sequential import run_sequential_experiment
from repro.experiments.tables import format_kv, format_table

__all__ = [
    "run_protocol_ablation",
    "run_service_time_ablation",
    "run_tree_ablation",
    "plot",
    "run_async_comparison",
    "run_competitive_sweep",
    "run_one_shot_analysis",
    "Fig9Report",
    "render_instance",
    "run_fig9",
    "run_theorem41_sweep",
    "run_theorem42_sweep",
    "worst_case_arrow_cost",
    "ExperimentResult",
    "Series",
    "run_sequential_experiment",
    "format_kv",
    "format_table",
]
