"""Theorem 4.1 / 4.2 experiments: lower-bound ratio growth.

Sweeps the adversarial instances over the path diameter and reports the
measured arrow/optimal ratio for

* the **literal** Theorem 4.1 recursion (as printed in the paper), and
* the **bitonic layered** reconstruction (see
  :mod:`repro.lowerbound.layered` for why both exist),

plus the Theorem 4.2 stretch-scaled variant.  The worst legal message
scheduler is approximated by taking the max cost over the ``min``/``max``
tie-breaking policies of the fast executor.

Each instance is also simulated on the fast arrow engine and the realised
execution's ratio reported alongside the tie-break bracket.  The kernel's
deterministic simultaneity resolution is one more legal scheduler — not
one of the two the bracket maximises over, so its ratio may land on
either side of the bracket's max (literal instance, D = 256: simulated
1.8423 against a bracket max of 1.8351).
"""

from __future__ import annotations

import math

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.optimal import opt_bounds
from repro.core.fast_arrow import run_arrow_fast
from repro.experiments.records import ExperimentResult, Series
from repro.lowerbound.construction import default_k, theorem41_instance
from repro.lowerbound.layered import layered_instance
from repro.lowerbound.stretch_graph import theorem42_instance
from repro.spanning.metrics import tree_stretch

__all__ = ["run_theorem41_sweep", "run_theorem42_sweep", "worst_case_arrow_cost"]


def worst_case_arrow_cost(tree, schedule) -> float:
    """Max arrow cost over the executor's tie-breaking policies.

    Every tie-break policy corresponds to a legal arrow execution
    (Lemma 3.8 leaves simultaneity resolution to the scheduler), so the
    max over policies is a certified lower bound on the worst case.
    """
    lo = predict_arrow_run(tree, schedule, tie_break="min").arrow_cost
    hi = predict_arrow_run(tree, schedule, tie_break="max").arrow_cost
    return max(lo, hi)


def _simulated_cost(inst) -> float:
    """Total latency of the kernel's realised execution on one instance."""
    return run_arrow_fast(inst.graph, inst.tree, inst.schedule).total_latency


def _thm41_cell(D: int, k: int) -> tuple[float, float, float, float, float]:
    """One diameter: (lit ratio, lay ratio, target, sim lit, sim lay)."""
    lit = theorem41_instance(D, k)
    cost_lit = worst_case_arrow_cost(lit.tree, lit.schedule)
    ob_lit = opt_bounds(lit.graph, lit.tree, lit.schedule, 1.0, exact_limit=0)

    # The layered reconstruction sustains one extra refinement level.
    lay = layered_instance(D, k + 1)
    cost_lay = worst_case_arrow_cost(lay.tree, lay.schedule)
    ob_lay = opt_bounds(lay.graph, lay.tree, lay.schedule, 1.0, exact_limit=0)

    target = math.log2(D) / max(1.0, math.log2(max(2.0, math.log2(D))))
    return (
        cost_lit / ob_lit.upper,
        cost_lay / ob_lay.upper,
        target,
        _simulated_cost(lit) / ob_lit.upper,
        _simulated_cost(lay) / ob_lay.upper,
    )


def run_theorem41_sweep(
    diameters: list[int] | None = None,
    *,
    k_values: dict[int, int] | None = None,
) -> ExperimentResult:
    """Ratio growth of the adversarial instances vs diameter."""
    Ds = diameters if diameters is not None else [16, 64, 256, 1024]
    points = [
        _thm41_cell(D, (k_values or {}).get(D, default_k(D))) for D in Ds
    ]
    xs = [float(d) for d in Ds]
    return ExperimentResult(
        experiment_id="thm41",
        title="Lower-bound instances: measured arrow/opt ratio vs D",
        xlabel="path diameter D",
        series=[
            Series("literal construction", xs, [p[0] for p in points]),
            Series("bitonic layered", xs, [p[1] for p in points]),
            Series("log D / log log D target", xs, [p[2] for p in points]),
            Series("literal (simulated)", xs, [p[3] for p in points]),
            Series("layered (simulated)", xs, [p[4] for p in points]),
        ],
        notes=[
            "Theorem 4.1 target: ratio = Omega(log D / log log D)",
            "see repro.lowerbound.layered for the reconstruction note",
        ],
    )


def _thm42_cell(s: int, D_over_s: int) -> tuple[float, float, float]:
    """One stretch value: (ratio, measured stretch, simulated ratio)."""
    inst = theorem42_instance(D_over_s, s)
    cost = worst_case_arrow_cost(inst.tree, inst.schedule)
    stretch = tree_stretch(inst.graph, inst.tree).stretch
    ob = opt_bounds(inst.graph, inst.tree, inst.schedule, stretch, exact_limit=0)
    return cost / ob.upper, stretch, _simulated_cost(inst) / ob.upper


def run_theorem42_sweep(
    stretches: list[int] | None = None,
    *,
    D_over_s: int = 64,
) -> ExperimentResult:
    """Theorem 4.2: ratio scaling with the spanning tree's stretch."""
    ss = stretches if stretches is not None else [1, 2, 4, 8]
    points = [_thm42_cell(s, D_over_s) for s in ss]
    xs = [float(s) for s in ss]
    return ExperimentResult(
        experiment_id="thm42",
        title="Lower bound vs stretch (shortcut graphs)",
        xlabel="construction stretch s",
        series=[
            Series("measured ratio", xs, [p[0] for p in points]),
            Series("measured tree stretch", xs, [p[1] for p in points]),
            Series("simulated ratio", xs, [p[2] for p in points]),
        ],
        params={"D_over_s": D_over_s},
        notes=["Theorem 4.2: ratio = Omega(s log(D/s)/log log(D/s))"],
    )
