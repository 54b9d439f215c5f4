"""Competitive-ratio measurement: arrow vs the optimal offline bracket.

Combines the pieces of Section 3 into one call: run arrow (simulated or
via the NN executor), bracket the optimal offline cost, and report the ratio
together with the theorem's bound ``O(s log D)`` evaluated with the
explicit constants the proof yields:

    cost_arrow <= (3 * ceil(log2(3D)) * 2 + 1) * C_M(π_O)   (Thm 3.19 chain)
    C_M(π_O)  <= 12 * C_O(π_O) <= 12 * s * cost_Opt

so ``ratio <= (6 ceil(log2(3D)) + 1) * 12 * s``.  The experiments check
measured ratios against this explicit ceiling (they are far below it on
random workloads, as expected from a worst-case bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.optimal import OptBounds, opt_bounds
from repro.core.fast_arrow import run_arrow_fast
from repro.core.requests import RequestSchedule
from repro.errors import AnalysisError
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel
from repro.spanning.metrics import tree_diameter, tree_stretch
from repro.spanning.tree import SpanningTree

__all__ = ["CompetitiveReport", "theorem_319_ceiling", "measure_competitive_ratio"]


def theorem_319_ceiling(stretch: float, diameter: float) -> float:
    """Explicit worst-case ratio ceiling from the Theorem 3.19 proof chain."""
    log_term = max(1.0, math.ceil(math.log2(max(2.0, 3.0 * diameter))))
    return (6.0 * log_term + 1.0) * 12.0 * stretch


@dataclass(frozen=True, slots=True)
class CompetitiveReport:
    """Everything measured for one (graph, tree, schedule) instance."""

    arrow_cost: float
    opt: OptBounds
    ratio_lower: float
    ratio_upper: float
    stretch: float
    diameter: float
    ceiling: float
    simulated: bool

    @property
    def within_ceiling(self) -> bool:
        """True when even the pessimistic ratio stays under the bound."""
        return self.ratio_upper <= self.ceiling + 1e-9


def measure_competitive_ratio(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    *,
    simulate: bool = True,
    latency: LatencyModel | None = None,
    seed: int = 0,
    exact_limit: int = 12,
    arrow_cost: float | None = None,
) -> CompetitiveReport:
    """Measure arrow's competitive ratio bracket on one instance.

    With ``simulate`` the arrow cost comes from a simulator run on
    :class:`~repro.core.fast_arrow.FastArrowEngine` (bit-identical to
    the message-level ground truth; required for asynchronous latency
    models); otherwise from the NN executor (synchronous model only — a
    :class:`AnalysisError` is raised if a latency model is supplied).
    A caller that already *simulated* the instance can pass its
    ``arrow_cost`` to skip the redundant rerun; the report then counts as
    simulated regardless of the ``simulate`` flag.
    """
    if len(schedule) == 0:
        raise AnalysisError("cannot measure a ratio on an empty schedule")
    if not simulate and latency is not None:
        raise AnalysisError("fast executor models synchronous latency only")
    if arrow_cost is None:
        if simulate:
            arrow_cost = run_arrow_fast(
                graph, tree, schedule, latency=latency, seed=seed
            ).total_latency
        else:
            arrow_cost = predict_arrow_run(tree, schedule).arrow_cost
        simulated = simulate
    else:
        simulated = True

    stretch = tree_stretch(graph, tree).stretch
    diameter = tree_diameter(tree)
    bounds = opt_bounds(graph, tree, schedule, stretch, exact_limit=exact_limit)
    lo, hi = bounds.ratio_bracket(arrow_cost)
    return CompetitiveReport(
        arrow_cost=arrow_cost,
        opt=bounds,
        ratio_lower=lo,
        ratio_upper=hi,
        stretch=stretch,
        diameter=diameter,
        ceiling=theorem_319_ceiling(stretch, diameter),
        simulated=simulated,
    )
