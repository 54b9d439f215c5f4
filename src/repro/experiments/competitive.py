"""Theorem 3.19 / 3.21 experiments: measured competitive ratios.

Sweeps tree diameter (and latency model) over random dynamic workloads
and reports the measured ratio bracket against the theorem's explicit
``O(s log D)`` ceiling.  Random workloads sit far below the worst case —
the point of the sweep is (a) the bound is never violated and (b) the
measured ratio grows at most logarithmically with ``D``.

The arrow runs use the fast engine (bit-identical to the message-level
simulator, and sooner there on large diameters).
"""

from __future__ import annotations

from repro.analysis.competitive import CompetitiveReport, measure_competitive_ratio
from repro.core.fast_arrow import run_arrow_fast
from repro.experiments.records import ExperimentResult, Series
from repro.graphs.generators import path_graph
from repro.net.latency import UniformLatency
from repro.spanning.tree import SpanningTree
from repro.workloads.schedules import random_times

__all__ = ["run_competitive_sweep", "run_async_comparison"]


def _path_instance(D: int) -> tuple:
    graph = path_graph(D + 1)
    tree = SpanningTree([max(0, i - 1) for i in range(D + 1)], root=0)
    return graph, tree


def _sync_cell(
    D: int, requests: int, horizon_factor: float, seed: int
) -> tuple[float, float, float]:
    """One diameter of the synchronous sweep: (ratio_hi, ratio_lo, ceiling)."""
    graph, tree = _path_instance(D)
    sched = random_times(
        D + 1, requests, horizon=horizon_factor * D, seed=seed + D
    )
    rep: CompetitiveReport = measure_competitive_ratio(
        graph, tree, sched, simulate=True, exact_limit=10
    )
    return rep.ratio_upper, rep.ratio_lower, rep.ceiling


def run_competitive_sweep(
    diameters: list[int] | None = None,
    *,
    requests: int = 60,
    horizon_factor: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Measured ratio bracket vs tree diameter, synchronous model.

    Uses path graphs (stretch 1) so the diameter dependence is isolated;
    the workload is uniform random (node, time) with the time horizon
    proportional to ``D``.
    """
    Ds = diameters if diameters is not None else [8, 16, 32, 64, 128]
    points = [_sync_cell(D, requests, horizon_factor, seed) for D in Ds]
    ratio_hi = [p[0] for p in points]
    ratio_lo = [p[1] for p in points]
    ceilings = [p[2] for p in points]
    xs = [float(d) for d in Ds]
    return ExperimentResult(
        experiment_id="thm319",
        title="Competitive ratio vs diameter (synchronous, random workload)",
        xlabel="tree diameter D",
        series=[
            Series("ratio (vs opt upper bd)", xs, ratio_lo),
            Series("ratio (vs opt lower bd)", xs, ratio_hi),
            Series("O(s log D) ceiling", xs, ceilings),
        ],
        params={"requests": requests, "seed": seed},
        notes=["Theorem 3.19: ratio = O(s log D); measured stays far below"],
    )


def _async_cell(
    D: int, requests: int, seed: int, lo: float
) -> tuple[float, float, float]:
    """One diameter of the async comparison: (sync, async, ratio_hi)."""
    graph, tree = _path_instance(D)
    sched = random_times(D + 1, requests, horizon=float(D), seed=seed + D)
    sync_res = run_arrow_fast(graph, tree, sched)
    async_res = run_arrow_fast(
        graph, tree, sched, latency=UniformLatency(lo, 1.0), seed=seed
    )
    # Hand the realised async cost to the ratio measurement instead of
    # letting it rerun the identical simulation.
    rep = measure_competitive_ratio(
        graph,
        tree,
        sched,
        simulate=True,
        exact_limit=10,
        arrow_cost=async_res.total_latency,
    )
    return sync_res.total_latency, async_res.total_latency, rep.ratio_upper


def run_async_comparison(
    diameters: list[int] | None = None,
    *,
    requests: int = 60,
    seed: int = 0,
    lo: float = 0.2,
) -> ExperimentResult:
    """Theorem 3.21: arrow cost under asynchronous delays <= 1.

    Runs the same schedules under the synchronous model and under uniform
    random delays in ``[lo, 1]`` and reports both total costs: the
    asynchronous execution can only be cheaper per message (delays <= 1),
    and its competitive ceiling is the same ``O(s log D)``.
    """
    Ds = diameters if diameters is not None else [8, 16, 32, 64, 128]
    points = [_async_cell(D, requests, seed, lo) for D in Ds]
    sync_cost = [p[0] for p in points]
    async_cost = [p[1] for p in points]
    ratio_hi = [p[2] for p in points]
    xs = [float(d) for d in Ds]
    return ExperimentResult(
        experiment_id="thm321",
        title="Asynchronous arrow: cost vs synchronous on the same schedules",
        xlabel="tree diameter D",
        series=[
            Series("sync total latency", xs, sync_cost),
            Series("async total latency", xs, async_cost),
            Series("async ratio (vs opt lower bd)", xs, ratio_hi),
        ],
        params={"requests": requests, "seed": seed, "delay_lo": lo},
        notes=[
            "Theorem 3.21: same O(s log D) bound under delays scaled to <= 1;"
            " async executions are message-wise no slower than the sync bound",
        ],
    )
