"""Built-in cell families: the behaviours behind every schedule-axis name.

Imported lazily by :mod:`repro.sweep.registry` on first lookup; importing
this module registers:

* the six **open-loop** schedule families (``one_shot`` … ``random``) —
  one shared behaviour: build a request schedule, replay it through the
  selected arrow engine (fast/message, bit-identical);
* the §5 **closed-loop** workloads (``closed_arrow`` /
  ``closed_centralized``), whose request times are generated by the
  acknowledgement dynamics;
* the §5.1 **directory** designs (``directory_arrow`` /
  ``directory_home``), the paper's motivating application under a closed
  acquire→use→release loop, with the mutual-exclusion invariant recorded
  as the ``exclusion_ok`` row column;
* the §1.1 **adaptive-pointer** baseline (``adaptive``, NTA/Ivy path
  shorting) driven by a nested open-loop schedule.

The directory and adaptive families run at full message level only —
they ignore the spec's ``engine`` axis (``uses_engine=False``) and tag
their rows with a ``protocol`` column instead.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.apps.directory import arrow_directory, home_directory
from repro.core.adaptive import run_adaptive
from repro.core.fast_arrow import arrow_runner
from repro.core.fast_closed_loop import closed_loop_runner
from repro.core.queueing import float_total
from repro.errors import SweepError
from repro.faults import run_arrow_faulted
from repro.monitors import ArrowMonitor
from repro.sweep.registry import CellFamily, register_family
from repro.sweep.spec import (
    CLOSED_LOOP_FAMILIES,
    OPEN_LOOP_SCHEDULES,
    ScheduleSpec,
    SweepCell,
    build_graph,
    build_schedule,
    build_tree,
)
from repro.sweep.stats import latency_columns

__all__ = [
    "ADAPTIVE_PARAMS",
    "DIRECTORY_PARAMS",
    "DIRECTORY_HOME_PARAMS",
]


def _require_positive(params: Mapping[str, object], *keys: str) -> None:
    """Reject explicit non-positive sizes/rates at spec-build time.

    These keys all have per-node or documented defaults; an explicit
    ``count=0`` or ``rate=0.0`` used to be silently rerouted to the
    default by a falsy-fallback, running a different workload than the
    cell id claimed.
    """
    for key in keys:
        if key in params and float(params[key]) <= 0:  # type: ignore[arg-type]
            raise SweepError(
                f"{key} must be positive, got {params[key]!r} "
                f"(omit {key} to use its default)"
            )


def _require_non_negative(params: Mapping[str, object], *keys: str) -> None:
    for key in keys:
        if key in params and float(params[key]) < 0:  # type: ignore[arg-type]
            raise SweepError(f"{key} must be >= 0, got {params[key]!r}")


# ----------------------------------------------------------------------
# open-loop arrow (six schedule families, one behaviour)
# ----------------------------------------------------------------------
def _validate_open_loop(params: Mapping[str, object]) -> None:
    _require_positive(
        params, "count", "per_node", "rate", "rate_per_node", "gap", "horizon"
    )


def _build_open_loop(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    graph = build_graph(cell.graph, derived)
    tree = build_tree(cell.tree, graph, derived)
    schedule = build_schedule(cell.schedule, graph.num_nodes, derived)
    return {"graph": graph, "tree": tree, "schedule": schedule}


def _run_result_columns(graph, requests: int, result) -> dict[str, Any]:
    """Metric columns shared by every open-loop :class:`RunResult` row."""
    return {
        "n": graph.num_nodes,
        "requests": requests,
        "makespan": result.makespan,
        "total_latency": result.total_latency,
        "mean_hops": result.mean_hops,
        "local_find_fraction": result.local_find_fraction,
        "messages_sent": result.network_stats["messages_sent"],
        "hops_total": result.network_stats["hops_total"],
        **latency_columns(result.latencies),
    }


def _open_loop_row(
    cell: SweepCell, derived: int, built: Mapping[str, Any]
) -> dict[str, Any]:
    monitor = ArrowMonitor(built["tree"]) if cell.monitors else None
    if cell.faults:
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
        runner = arrow_runner(cell.engine)
        result = runner(
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


# Builtins register with replace=True: if this module's import fails
# partway (broken environment) the registry retries it on the next
# lookup, and the already-registered prefix must not mask the real error.
for _name, _accepted in OPEN_LOOP_SCHEDULES.items():
    register_family(
        CellFamily(
            name=_name,
            accepted=_accepted,
            build=_build_open_loop,
            to_row=_open_loop_row,
            validate=_validate_open_loop,
            supports_faults=True,
        ),
        replace=True,
    )


# ----------------------------------------------------------------------
# §5 closed loops
# ----------------------------------------------------------------------
def _validate_closed_loop(params: Mapping[str, object]) -> None:
    _require_positive(params, "requests_per_proc")
    _require_non_negative(params, "think_time", "center")


def _build_closed_loop(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    graph = build_graph(cell.graph, derived)
    built: dict[str, Any] = {"graph": graph}
    if cell.schedule.family == "closed_arrow":
        built["tree"] = build_tree(cell.tree, graph, derived)
    else:
        center = int(cell.schedule.kwargs().get("center", 0))
        if center >= graph.num_nodes:
            raise SweepError(
                f"closed_centralized: center {center} outside the graph's "
                f"{graph.num_nodes} nodes"
            )
        built["center"] = center
    return built


def _closed_loop_row(
    cell: SweepCell, derived: int, built: Mapping[str, Any]
) -> dict[str, Any]:
    graph = built["graph"]
    params = cell.schedule.kwargs()
    requests_per_proc = int(params.get("requests_per_proc", 100))
    think_time = float(params.get("think_time", 0.0))
    if cell.schedule.family == "closed_arrow":
        monitor = ArrowMonitor(built["tree"]) if cell.monitors else None
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
    return {
        "n": graph.num_nodes,
        "requests": result.total_requests,
        "makespan": result.makespan,
        "total_latency": float_total(result.latencies),
        "mean_hops": result.mean_hops,
        "local_find_fraction": result.local_find_fraction,
        "messages_sent": result.messages_sent,
        "hops_total": sum(result.hops),
        **latency_columns(result.latencies),
    }


for _name, _accepted in CLOSED_LOOP_FAMILIES.items():
    register_family(
        CellFamily(
            name=_name,
            accepted=_accepted,
            build=_build_closed_loop,
            to_row=_closed_loop_row,
            validate=_validate_closed_loop,
        ),
        replace=True,
    )


# ----------------------------------------------------------------------
# §5.1 directory designs
# ----------------------------------------------------------------------
DIRECTORY_PARAMS = frozenset({"acquisitions_per_proc", "cs_time"})
DIRECTORY_HOME_PARAMS = DIRECTORY_PARAMS | {"home"}


def _validate_directory(params: Mapping[str, object]) -> None:
    _require_positive(params, "acquisitions_per_proc")
    _require_non_negative(params, "cs_time", "home")


def _build_directory_arrow(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    graph = build_graph(cell.graph, derived)
    return {"graph": graph, "tree": build_tree(cell.tree, graph, derived)}


def _build_directory_home(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    graph = build_graph(cell.graph, derived)
    home = int(cell.schedule.kwargs().get("home", 0))
    if home >= graph.num_nodes:
        raise SweepError(
            f"directory_home: home {home} outside the graph's "
            f"{graph.num_nodes} nodes"
        )
    return {"graph": graph, "home": home}


def _directory_row(
    cell: SweepCell, derived: int, built: Mapping[str, Any]
) -> dict[str, Any]:
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
            built["home"],
            acquisitions_per_proc=acquisitions,
            cs_time=cs_time,
            seed=derived,
            service_time=cell.service_time,
        )
    return {"n": built["graph"].num_nodes, **result.row_metrics()}


register_family(
    CellFamily(
        name="directory_arrow",
        accepted=DIRECTORY_PARAMS,
        build=_build_directory_arrow,
        to_row=_directory_row,
        validate=_validate_directory,
        uses_engine=False,
    ),
    replace=True,
)
register_family(
    CellFamily(
        name="directory_home",
        accepted=DIRECTORY_HOME_PARAMS,
        build=_build_directory_home,
        to_row=_directory_row,
        validate=_validate_directory,
        uses_engine=False,
    ),
    replace=True,
)


# ----------------------------------------------------------------------
# §1.1 adaptive-pointer baseline (NTA / Ivy path shorting)
# ----------------------------------------------------------------------
ADAPTIVE_PARAMS = frozenset({"schedule"}).union(*OPEN_LOOP_SCHEDULES.values())


def _validate_adaptive(params: Mapping[str, object]) -> None:
    inner = str(params.get("schedule", "poisson"))
    if inner not in OPEN_LOOP_SCHEDULES:
        raise SweepError(
            f"adaptive: nested schedule must be an open-loop family "
            f"({sorted(OPEN_LOOP_SCHEDULES)}), got {inner!r}"
        )
    unknown = set(params) - {"schedule"} - OPEN_LOOP_SCHEDULES[inner]
    if unknown:
        raise SweepError(
            f"adaptive: schedule family {inner!r} does not accept "
            f"{sorted(unknown)}; known parameters: "
            f"{sorted(OPEN_LOOP_SCHEDULES[inner])}"
        )
    _validate_open_loop(params)


def _build_adaptive(cell: SweepCell, derived: int) -> Mapping[str, Any]:
    """Adaptive pointers need no spanning tree: the tree axis only keys
    the cell id; requests chase ``last`` pointers from root 0 instead."""
    graph = build_graph(cell.graph, derived)
    params = cell.schedule.kwargs()
    inner = str(params.pop("schedule", "poisson"))
    schedule = build_schedule(
        ScheduleSpec.of(inner, **params), graph.num_nodes, derived
    )
    return {"graph": graph, "schedule": schedule}


def _adaptive_row(
    cell: SweepCell, derived: int, built: Mapping[str, Any]
) -> dict[str, Any]:
    result = run_adaptive(
        built["graph"],
        0,
        built["schedule"],
        seed=derived,
        service_time=cell.service_time,
    )
    return {
        "protocol": "adaptive",
        **_run_result_columns(built["graph"], len(built["schedule"]), result),
    }


register_family(
    CellFamily(
        name="adaptive",
        accepted=ADAPTIVE_PARAMS,
        build=_build_adaptive,
        to_row=_adaptive_row,
        validate=_validate_adaptive,
        uses_engine=False,
    ),
    replace=True,
)
