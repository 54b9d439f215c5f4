"""Figure 9: the lower-bound instance and arrow's realised order.

The paper's Figure 9 draws the Theorem 4.1 instance for ``D = 64, k = 6``:
requests as dots in (position, time) space, connected by arrow's queuing
order.  This experiment regenerates the picture as ASCII art for both the
literal construction and the bitonic layered reconstruction, and reports
the realised arrow cost against the ``k·D`` sweep target and the comb
bound on the optimal cost (see the reproduction note in
:mod:`repro.lowerbound.layered`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.optimal import opt_bounds
from repro.core.fast_arrow import run_arrow_fast
from repro.core.requests import RequestSchedule
from repro.lowerbound.comb import comb_mst_weight
from repro.lowerbound.construction import theorem41_instance
from repro.lowerbound.layered import layered_instance

__all__ = ["Fig9Report", "run_fig9", "render_instance"]


@dataclass(slots=True)
class Fig9Report:
    """Outcome of one Figure 9 regeneration."""

    variant: str
    D: int
    k: int
    num_requests: int
    arrow_cost: float
    sweep_target: float
    opt_upper: float
    opt_lower: float
    comb_weight: float
    ratio: float
    picture: str
    #: Total latency of the realised execution on the fast arrow engine.
    sim_cost: float


def render_instance(
    schedule: RequestSchedule, D: int, *, width: int = 65
) -> str:
    """ASCII rendering of the (position, time) dot pattern, Fig. 9 style."""
    times = sorted({r.time for r in schedule})
    scale = (width - 1) / max(1, D)
    lines = []
    for t in times:
        row = [" "] * width
        for r in schedule:
            if r.time == t:
                row[int(r.node * scale)] = "*"
        lines.append(f"t={int(t):3d} |" + "".join(row) + "|")
    return "\n".join(lines)


def run_fig9(D: int = 64, k: int = 6, *, variant: str = "layered") -> Fig9Report:
    """Regenerate the Figure 9 instance and measure arrow against opt.

    ``variant`` is ``"literal"`` (the construction exactly as printed) or
    ``"layered"`` (the bitonic reconstruction that realises the sweep
    mechanism; default).  The report carries a simulated cross-check:
    the realised execution's total latency on the fast arrow engine, one
    legal scheduling of the same instance.
    """
    if variant == "literal":
        inst = theorem41_instance(D, k)
        sweep_target = float(k * D)
    elif variant == "layered":
        li = layered_instance(D, k)
        inst = li
        sweep_target = li.sweep_cost_target
    else:
        raise ValueError(f"unknown variant {variant!r}")
    pred = predict_arrow_run(inst.tree, inst.schedule, tie_break="min")
    bounds = opt_bounds(inst.graph, inst.tree, inst.schedule, 1.0, exact_limit=0)
    return Fig9Report(
        variant=variant,
        D=D,
        k=k,
        num_requests=len(inst.schedule),
        arrow_cost=pred.arrow_cost,
        sweep_target=sweep_target,
        opt_upper=bounds.upper,
        opt_lower=bounds.lower,
        comb_weight=comb_mst_weight(inst.schedule),
        ratio=pred.arrow_cost / bounds.upper if bounds.upper else float("inf"),
        picture=render_instance(inst.schedule, D),
        sim_cost=run_arrow_fast(
            inst.graph, inst.tree, inst.schedule
        ).total_latency,
    )
