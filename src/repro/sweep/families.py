"""The cell families: the behaviour behind every schedule-axis name.

:data:`FAMILIES` is the one table, name -> :class:`CellFamily`; each
entry declares its parameters once, as ``{name: kind}`` (the kinds are in
:mod:`repro.sweep.registry`), and adding a family is adding an entry.
:func:`repro.sweep.registry.get_family` imports this module on first
lookup.  The families:

* the six **open-loop** schedule families (``one_shot`` … ``random``,
  parameters in :data:`repro.sweep.spec.OPEN_LOOP_SCHEDULES`) — one
  shared behaviour: build a request schedule, replay it through the
  selected arrow engine (fast/message, bit-identical);
* the §5 **closed-loop** workloads (``closed_arrow`` /
  ``closed_centralized``), whose request times are generated by the
  acknowledgement dynamics;
* the §5.1 **directory** designs (``directory_arrow`` /
  ``directory_home``), the paper's motivating application under a closed
  acquire→use→release loop, with the mutual-exclusion invariant recorded
  as the ``exclusion_ok`` row column;
* the Section 3 **competitive ratio** (``ratio``) of an open-loop
  protocol — arrow, the §1.1 NTA/Ivy adaptive-pointer baseline or the
  centralized one — against the optimal offline bracket, and the Section
  4 **lower-bound** instances (``lowerbound``) — the rows of the theorem
  and ablation tables.

The directory families run on the flat loops, each the one version of
its design (the message-level ones are test oracles) — they ignore the
spec's ``engine`` axis (``uses_engine=False``) and tag their rows with a
``protocol`` column instead.  So do the ``ratio`` family's two
baselines, on :mod:`repro.core.fast_closed_loop`'s routed loop; its
``engine`` selects arrow's.  Only the open-loop families and
``closed_arrow`` attach a monitor (``supports_monitors``).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro.core.totals import float_total
from repro.errors import SweepError
from repro.sim.rng import spawn_rng
from repro.sweep.registry import (
    CellFamily,
    choice,
    count,
    duration,
    node,
    positive_real,
)
from repro.sweep.spec import (
    LOWERBOUND_AXES,
    OPEN_LOOP_SCHEDULES,
    SweepCell,
    build_graph,
    build_schedule,
    build_tree,
)
from repro.sweep.stats import latency_columns
from repro.workloads import schedules as _schedules

__all__ = ["FAMILIES"]


# ----------------------------------------------------------------------
# open-loop arrow (six schedule families, one behaviour)
# ----------------------------------------------------------------------
def _build_open_loop(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    graph = build_graph(cell.graph, derived)
    tree = build_tree(cell.tree, graph, derived)
    schedule = build_schedule(cell.schedule, graph.num_nodes, derived)
    return {"graph": graph, "tree": tree, "schedule": schedule}


def _metric_columns(n, requests, makespan, latencies, hops, messages, hops_total):
    """The metric columns every open- and closed-loop run row shares.

    ``latencies`` and ``hops`` are per completed request; the mean hop
    count and local-find fraction are what ``RunResult`` and
    ``ClosedLoopResult`` compute from them.
    """
    done = len(hops)
    return {
        "n": n,
        "requests": requests,
        "makespan": makespan,
        "total_latency": float_total(latencies),
        "mean_hops": sum(hops) / done if done else 0.0,
        "local_find_fraction": hops.count(0) / done if done else 0.0,
        "messages_sent": messages,
        "hops_total": hops_total,
        **latency_columns(latencies),
    }


def _run_result_columns(graph, requests: int, result) -> dict[str, Any]:
    """:func:`_metric_columns` of an open-loop :class:`RunResult`."""
    stats = result.network_stats
    return _metric_columns(
        graph.num_nodes, requests, result.makespan, result.latencies, result.hops,
        stats["messages_sent"], stats["hops_total"],
    )


def _monitor(cell: SweepCell, tree):
    """An :class:`~repro.monitors.ArrowMonitor` on ``tree`` for a monitored
    cell, else ``None``."""
    if not cell.monitors:
        return None
    from repro.monitors import ArrowMonitor

    return ArrowMonitor(tree)


def _open_loop_row(
    cell: SweepCell, derived: int, built: Mapping[str, Any]
) -> dict[str, Any]:
    monitor = _monitor(cell, built["tree"])
    if cell.faults:
        from repro.faults import run_arrow_faulted

        result, report = run_arrow_faulted(
            built["graph"],
            built["tree"],
            built["schedule"],
            cell.faults,
            engine=cell.engine,
            seed=derived,
            service_time=cell.service_time,
            on_event=monitor,
        )
        # Fault columns appear only on faulted rows, so fault-free grids
        # stay byte-identical to pre-fault-axis sweeps.
        extra = {"faults": cell.faults, **report.as_columns()}
    else:
        from repro.core.fast_arrow import arrow_runner

        result = arrow_runner(cell.engine)(
            built["graph"],
            built["tree"],
            built["schedule"],
            seed=derived,
            service_time=cell.service_time,
            on_event=monitor,
        )
        extra = {}
    if monitor is not None:
        monitor.finalize(expected=len(built["schedule"]))
    return {
        **_run_result_columns(built["graph"], len(built["schedule"]), result),
        **extra,
    }


# ----------------------------------------------------------------------
# §5 closed loops
# ----------------------------------------------------------------------
def _build_closed(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    """The graph, plus the tree of an arrow design or the centre node of
    the other (``center`` / ``home``, default 0; the graph must have it).
    The directory designs build the same way."""
    graph = build_graph(cell.graph, derived)
    family = cell.schedule.family
    if family.endswith("_arrow"):
        return {"graph": graph, "tree": build_tree(cell.tree, graph, derived)}
    key = "home" if family == "directory_home" else "center"
    center = int(cell.schedule.kwargs().get(key, 0))
    if center >= graph.num_nodes:
        raise SweepError(f"{family}: {key} {center} outside the graph's {graph.num_nodes} nodes")
    return {"graph": graph, "center": center}


def _closed_loop_row(
    cell: SweepCell, derived: int, built: Mapping[str, Any]
) -> dict[str, Any]:
    from repro.core.fast_closed_loop import closed_loop_runner

    graph = built["graph"]
    params = cell.schedule.kwargs()
    requests_per_proc = int(params.get("requests_per_proc", 100))
    think_time = float(params.get("think_time", 0.0))
    if cell.schedule.family == "closed_arrow":
        monitor = _monitor(cell, built["tree"])
        runner = closed_loop_runner("arrow", cell.engine)
        result = runner(
            graph,
            built["tree"],
            requests_per_proc=requests_per_proc,
            seed=derived,
            service_time=cell.service_time,
            think_time=think_time,
            on_event=monitor,
        )
        if monitor is not None:
            monitor.finalize(expected=result.total_requests)
    else:
        runner = closed_loop_runner("centralized", cell.engine)
        result = runner(
            graph,
            built["center"],
            requests_per_proc=requests_per_proc,
            seed=derived,
            service_time=cell.service_time,
            think_time=think_time,
        )
    return _metric_columns(
        graph.num_nodes, result.total_requests, result.makespan, result.latencies,
        result.hops, result.messages_sent, sum(result.hops),
    )


# ----------------------------------------------------------------------
# §5.1 directory designs
# ----------------------------------------------------------------------
def _directory_row(
    cell: SweepCell, derived: int, built: Mapping[str, Any]
) -> dict[str, Any]:
    from repro.apps.directory import arrow_directory, home_directory

    params = cell.schedule.kwargs()
    acquisitions = int(params.get("acquisitions_per_proc", 50))
    cs_time = float(params.get("cs_time", 0.5))
    if cell.schedule.family == "directory_arrow":
        result = arrow_directory(
            built["graph"],
            built["tree"],
            acquisitions_per_proc=acquisitions,
            cs_time=cs_time,
            seed=derived,
            service_time=cell.service_time,
        )
    else:
        result = home_directory(
            built["graph"],
            built["center"],
            acquisitions_per_proc=acquisitions,
            cs_time=cs_time,
            seed=derived,
            service_time=cell.service_time,
        )
    return {"n": built["graph"].num_nodes, **result.row_metrics()}


# ----------------------------------------------------------------------
# Section 3 competitive ratio (Theorems 3.19 / 3.21, the one-shot and
# sequential regimes, the §1.1 ablations)
# ----------------------------------------------------------------------
def _check_ratio(params: Mapping[str, Any]) -> None:
    if params.get("latency_lo", 1.0) > 1.0:
        raise SweepError(f"ratio: latency_lo must be <= 1, got {params['latency_lo']!r}")


def _ratio_schedule(kind: str, params: Mapping[str, Any], n: int, D: float, seed: int):
    """A ratio cell's ``kind`` of workload on ``n`` nodes and a tree of
    diameter ``D``.

    ``random`` is Theorem 3.19's: ``count`` requests uniform over the nodes
    and ``[0, D]``, drawn from ``seed + D`` so each diameter of a sweep
    draws its own.  ``poisson``: ``count`` arrivals at aggregate
    ``rate``; ``one_shot``: ``count`` distinct nodes at time 0;
    ``sequential``: ``count`` nodes ``2D + 2`` apart, never two active.
    """
    count = int(params.get("count", n))
    if kind == "random":
        return _schedules.random_times(n, count, horizon=D, seed=seed + round(D))
    if kind == "poisson":
        return _schedules.poisson(n, count, float(params.get("rate", 1.0)), seed=seed)
    rng = spawn_rng(seed, f"ratio-{kind}")
    if kind == "one_shot":
        return _schedules.one_shot(rng.choice(n, size=min(count, n), replace=False).tolist())
    return _schedules.sequential(rng.integers(0, n, size=count).tolist(), gap=2.0 * D + 2.0)


def _build_ratio(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    """Everything comes from the cell's master seed, not the derived cell
    seed: cells that differ only in tree or protocol replay one graph and
    one schedule — the ablations' paired comparisons."""
    from repro.spanning.metrics import tree_diameter

    graph = build_graph(cell.graph, cell.seed)
    tree = build_tree(cell.tree, graph, cell.seed)
    D = tree_diameter(tree)
    params = cell.schedule.kwargs()
    kind = params.get("schedule", "random")
    schedule = _ratio_schedule(kind, params, graph.num_nodes, D, cell.seed)
    return {"graph": graph, "tree": tree, "schedule": schedule, "D": D, "kind": kind}


def _ratio_row(cell: SweepCell, derived: int, built: Mapping[str, Any]) -> dict[str, Any]:
    """The run's columns, ``protocol``, ``msgs_per_request`` and the tree's
    ``stretch`` and ``diameter``.  ``adaptive`` and ``centralized`` run from
    node 0 and ignore the tree.  A link's delay is its weight (unit delay
    on a unit-weight graph), the unit every distance in the row is in.
    With ``latency_lo`` delays are uniform in ``[latency_lo, 1]`` times
    the weight and ``sync_latency`` is the delay-equals-weight cost:
    Theorem 3.21's comparison.

    The competitive regimes (every workload but the ablations' ``poisson``)
    add the opt bracket (``opt_lower`` / ``opt_upper``, exact up to 10
    requests), the ratio bracket (``ratio_lo`` against the upper bound,
    ``ratio_hi`` the lower) and Theorem 3.19's ``ceiling``; a one-shot row
    also [10]'s ``oneshot_ceiling``, ``48 s log|R|``.
    """
    # The analysis layer is numpy matrices: imported by the rows that use it.
    from repro.analysis.competitive import theorem_319_ceiling
    from repro.analysis.optimal import opt_bounds
    from repro.core.fast_arrow import arrow_runner
    from repro.core.fast_closed_loop import run_adaptive, run_centralized
    from repro.net.latency import UniformLatency, WeightLatency
    from repro.spanning.metrics import tree_stretch

    graph, tree, schedule, D = built["graph"], built["tree"], built["schedule"], built["D"]
    kind = built["kind"]
    params = cell.schedule.kwargs()
    protocol, lo = params.get("protocol", "arrow"), params.get("latency_lo")

    def run(latency):
        knobs = {"latency": latency, "seed": cell.seed, "service_time": cell.service_time}
        if protocol == "arrow":
            return arrow_runner(cell.engine)(graph, tree, schedule, **knobs)
        runner = run_adaptive if protocol == "adaptive" else run_centralized
        return runner(graph, 0, schedule, **knobs)

    sync = None if graph.is_unit_weighted() else WeightLatency()
    result = run(sync if lo is None else UniformLatency(float(lo), 1.0))
    stretch = tree_stretch(graph, tree).stretch
    row = {
        **_run_result_columns(graph, len(schedule), result),
        "protocol": protocol,
        "msgs_per_request": result.network_stats["messages_sent"] / len(schedule),
        "stretch": stretch,
        "diameter": D,
    }
    if lo is not None:
        row["sync_latency"] = run(sync).total_latency
    if kind == "poisson":
        return row
    bounds = opt_bounds(graph, tree, schedule, stretch, exact_limit=10)
    row["opt_lower"], row["opt_upper"] = bounds.lower, bounds.upper
    row["ratio_lo"], row["ratio_hi"] = bounds.ratio_bracket(result.total_latency)
    row["ceiling"] = theorem_319_ceiling(stretch, D)
    if kind == "one_shot":
        row["oneshot_ceiling"] = 4.0 * stretch * max(1.0, math.log2(len(schedule))) * 12.0
    return row


# ----------------------------------------------------------------------
# Section 4 lower-bound instances (Fig. 9, Theorems 4.1 / 4.2)
# ----------------------------------------------------------------------
def _check_lowerbound(params: Mapping[str, Any]) -> None:
    """The instance builders' own rules, checked at spec build (without
    importing :mod:`repro.lowerbound`), so a bad instance is a usage
    error before any output exists rather than a failed cell.  The path
    length — ``D``, or ``D / s`` for ``stretch`` — is a power of two, at
    least 4 for ``layered`` and 2 otherwise; the recursion's ``k`` is
    even (``literal``, ``stretch``)."""
    if "D" not in params or params["D"] % params.get("s", 1):
        raise SweepError(f"lowerbound: D, a multiple of s, is required; got {params}")
    variant, k, D = params.get("variant", "layered"), params.get("k"), params["D"]
    name, size = ("D/s", D // params.get("s", 1)) if variant == "stretch" else ("D", D)
    least = 4 if variant == "layered" else 2
    if size < least or size & (size - 1):
        raise SweepError(
            f"lowerbound {variant}: {name} must be a power of two >= {least}, got {size}"
        )
    if variant != "layered" and k is not None and k % 2:
        raise SweepError(f"lowerbound {variant}: k must be even, got {k}")


def _build_lowerbound(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    """The Section 4 instance of tree diameter ``D``.

    The construction fixes graph, tree (the path ``v_0 .. v_D`` rooted at
    ``v_0``) and schedule, so the other two axes must hold the placeholder
    :data:`~repro.sweep.spec.LOWERBOUND_AXES`.  ``literal`` is Theorem
    4.1's recursion as printed, ``layered`` the bitonic reconstruction (one
    refinement level deeper by default: it sustains one more), ``stretch``
    Theorem 4.2's shortcut graph over ``D / s`` segments of ``s`` hops;
    ``k`` defaults to ``default_k``.
    """
    from repro.lowerbound import (
        default_k,
        layered_instance,
        theorem41_instance,
        theorem42_instance,
    )

    if (cell.graph, cell.tree) != LOWERBOUND_AXES:
        raise SweepError(f"lowerbound: graph and tree axes must be {LOWERBOUND_AXES}")
    params = cell.schedule.kwargs()
    D, k, variant = int(params["D"]), params.get("k"), params.get("variant", "layered")
    if variant == "literal":
        inst = theorem41_instance(D, k)
    elif variant == "layered":
        inst = layered_instance(D, default_k(D) + 1 if k is None else k)
    else:
        s = int(params.get("s", 1))
        inst = theorem42_instance(D // s, s, k)
    built = {key: getattr(inst, key) for key in ("graph", "tree", "schedule", "D", "k")}
    return {**built, "variant": variant}


def _lowerbound_row(cell: SweepCell, derived: int, built: Mapping[str, Any]) -> dict[str, Any]:
    """Three costs over ``opt_upper``: ``arrow_ratio`` of ``arrow_cost``, the
    fast executor's prediction with ties to the smaller id (Fig. 9's);
    ``ratio`` of the worse of its two tie-break policies, each a legal
    scheduler (Theorems 4.1 / 4.2's); ``sim_ratio`` of ``sim_cost``, the
    kernel's realised execution (one more, so it may land on either side).
    ``ratio_target`` is the theorems' growth term ``s log(D/s) / log
    log(D/s)``, ``sweep_target`` the ``k D`` of one sweep per layer,
    ``comb_weight`` the comb bound on opt."""
    from repro.analysis.costs import augmented_nodes_times, request_distance_matrix
    from repro.analysis.nearest_neighbor import predict_arrow_run
    from repro.analysis.optimal import opt_bounds
    from repro.core.fast_arrow import arrow_runner
    from repro.lowerbound import comb_mst_weight
    from repro.spanning.metrics import tree_stretch

    graph, tree, schedule = built["graph"], built["tree"], built["schedule"]
    D, k = built["D"], built["k"]
    stretch = tree_stretch(graph, tree).stretch
    # One d_T matrix serves the bracket and both tie-break predictions.
    DT = request_distance_matrix(tree, augmented_nodes_times(schedule, tree.root)[0])
    bounds = opt_bounds(graph, tree, schedule, stretch, exact_limit=0, tree_distances=DT)
    cost, other = (
        predict_arrow_run(tree, schedule, tie_break=t, tree_distances=DT).arrow_cost
        for t in ("min", "max")
    )
    run = arrow_runner(cell.engine)
    sim = run(graph, tree, schedule, seed=cell.seed, service_time=cell.service_time).total_latency
    log_base = math.log2(D / stretch)
    return {
        "n": graph.num_nodes,
        "requests": len(schedule),
        "variant": built["variant"],
        "k": k,
        "diameter": D,
        "stretch": stretch,
        "arrow_cost": cost,
        "sim_cost": sim,
        "opt_lower": bounds.lower,
        "opt_upper": bounds.upper,
        "arrow_ratio": cost / bounds.upper,
        "ratio": max(cost, other) / bounds.upper,
        "sim_ratio": sim / bounds.upper,
        "ratio_target": stretch * log_base / max(1.0, math.log2(max(2.0, log_base))),
        "sweep_target": float(k * D),
        "comb_weight": comb_mst_weight(schedule),
    }


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
_CLOSED = {"requests_per_proc": count, "think_time": duration}
_DIRECTORY = {"acquisitions_per_proc": count, "cs_time": duration}

_OPEN_LOOP = ("repro.core.fast_arrow",)
_CLOSED_LOOP = ("repro.core.fast_closed_loop",)
_DIRECTORIES = ("repro.apps.directory",)

FAMILIES: dict[str, CellFamily] = {
    **{
        name: CellFamily(
            name, params, _build_open_loop, _open_loop_row,
            supports_faults=True, supports_monitors=True, engines=_OPEN_LOOP,
        )
        for name, params in OPEN_LOOP_SCHEDULES.items()
    },
    "closed_arrow": CellFamily(
        "closed_arrow", _CLOSED, _build_closed, _closed_loop_row,
        supports_monitors=True, engines=_CLOSED_LOOP,
    ),
    "closed_centralized": CellFamily(
        "closed_centralized", {**_CLOSED, "center": node}, _build_closed, _closed_loop_row,
        engines=_CLOSED_LOOP,
    ),
    "directory_arrow": CellFamily(
        "directory_arrow", _DIRECTORY, _build_closed, _directory_row,
        uses_engine=False, engines=_DIRECTORIES,
    ),
    "directory_home": CellFamily(
        "directory_home", {**_DIRECTORY, "home": node}, _build_closed, _directory_row,
        uses_engine=False, engines=_DIRECTORIES,
    ),
    "ratio": CellFamily(
        "ratio",
        {
            "schedule": choice("random", "poisson", "one_shot", "sequential"),
            "count": count,
            "rate": positive_real,
            "latency_lo": positive_real,
            "protocol": choice("arrow", "adaptive", "centralized"),
        },
        _build_ratio,
        _ratio_row,
        _check_ratio,
        engines=(
            "repro.analysis.optimal",
            "repro.core.fast_arrow",
            "repro.core.fast_closed_loop",
        ),
    ),
    "lowerbound": CellFamily(
        "lowerbound",
        {"D": count, "variant": choice("literal", "layered", "stretch"), "k": count, "s": count},
        _build_lowerbound,
        _lowerbound_row,
        _check_lowerbound,
        engines=("repro.analysis.optimal", "repro.core.fast_arrow", "repro.lowerbound"),
    ),
}
