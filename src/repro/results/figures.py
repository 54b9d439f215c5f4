"""Canonical tables/plots per paper figure, built from sweep rows.

Every table the paper commands print is a sweep grid's rows tabulated
here, so its :class:`~repro.experiments.records.ExperimentResult` is a
pure function of the rows.  This is the one producer of those tables:
``repro-arrow fig10|…|ablations`` feed it the rows of an in-memory sweep,
``results table|plot`` the rows of a stored run (no simulation re-runs;
regenerating a table from the results store is a read).

A figure either tabulates one metric column per series — rows grouped by
schedule family (and by tree, graph and fault plan when the grid sweeps
them), averaged over seeds per x — or lists its series as fixed
``(label, column)`` pairs over all of its rows; a third element
``(column, value)`` keeps only the rows that carry that value.  A
categorical table names its x points as cases of such conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ResultsError
from repro.experiments.records import ExperimentResult, Series

__all__ = ["FIGURES", "Figure", "figure_from_rows"]


@dataclass(frozen=True)
class Figure:
    """How one grid's rows become a table.

    ``x`` names the x column.  A categorical table gives ``cases``
    instead: a row's x is the index of the first case — a tuple of
    ``(column, value)`` conditions — it meets; a row that meets none is
    left out.
    """

    title: str
    metric: str = "makespan"
    unit: str = ""
    x: str = "n"
    xlabel: str = "n (nodes)"
    series: tuple[tuple, ...] = ()
    cases: tuple[tuple[tuple[str, Any], ...], ...] = ()
    notes: tuple[str, ...] = ()


_BRACKET = (("ratio (vs opt upper bd)", "ratio_lo"), ("ratio (vs opt lower bd)", "ratio_hi"))
_LITERAL, _LAYERED = ("variant", "literal"), ("variant", "layered")

#: Grid name -> its figure.  Any other grid tabulates ``makespan`` per
#: schedule family over ``n``; ``--metric`` overrides the column of all.
FIGURES: dict[str, Figure] = {
    "fig10": Figure(
        "Arrow vs centralized: total time for closed-loop enqueues", unit="sim time"
    ),
    "fig11": Figure("Arrow hops per operation", "mean_hops", "hops"),
    "directory": Figure(
        "Arrow vs home-based directory: closed-loop makespan", unit="sim time"
    ),
    "fig9": Figure(
        "Lower-bound instance costs",
        x="diameter",
        xlabel="D",
        series=(
            ("arrow cost", "arrow_cost"),
            ("sweep target (k sweeps)", "sweep_target"),
            ("opt upper bound", "opt_upper"),
            ("opt lower bound", "opt_lower"),
            ("comb Manhattan weight", "comb_weight"),
            ("measured ratio", "arrow_ratio"),
            ("simulated cost (fast)", "sim_cost"),
        ),
    ),
    "oneshot": Figure(
        "One-shot concurrent case: ratio vs |R| ([10])",
        x="requests",
        xlabel="|R| (simultaneous requests)",
        series=(*_BRACKET, ("s log|R| ceiling", "oneshot_ceiling")),
        notes=("[10]: one-shot arrow is s*log|R| competitive",),
    ),
    "thm319": Figure(
        "Competitive ratio vs diameter (synchronous, random workload)",
        x="diameter",
        xlabel="tree diameter D",
        series=(*_BRACKET, ("O(s log D) ceiling", "ceiling")),
        notes=("Theorem 3.19: ratio = O(s log D); measured stays far below",),
    ),
    "thm321": Figure(
        "Asynchronous arrow: cost vs synchronous on the same schedules",
        x="diameter",
        xlabel="tree diameter D",
        series=(
            ("sync total latency", "sync_latency"),
            ("async total latency", "total_latency"),
            ("async ratio (vs opt lower bd)", "ratio_hi"),
        ),
        notes=("Theorem 3.21: the same O(s log D) bound under delays <= 1",),
    ),
    "thm41": Figure(
        "Lower-bound instances: measured arrow/opt ratio vs D",
        x="diameter",
        xlabel="path diameter D",
        series=(
            ("literal construction", "ratio", _LITERAL),
            ("bitonic layered", "ratio", _LAYERED),
            ("log D / log log D target", "ratio_target", _LITERAL),
            ("literal (simulated)", "sim_ratio", _LITERAL),
            ("layered (simulated)", "sim_ratio", _LAYERED),
        ),
        notes=("Theorem 4.1: ratio = Omega(log D / log log D); see repro.lowerbound.layered",),
    ),
    "thm42": Figure(
        "Lower bound vs stretch (shortcut graphs)",
        x="stretch",
        xlabel="construction stretch s",
        series=(
            ("measured ratio", "ratio"),
            ("measured tree stretch", "stretch"),
            ("simulated ratio", "sim_ratio"),
        ),
        notes=("Theorem 4.2: ratio = Omega(s log(D/s)/log log(D/s))",),
    ),
    "sequential": Figure(
        "Sequential regime: per-op cost <= D, ratio <= stretch",
        xlabel="n (32=complete, 36=grid-6x6, 40=geometric; MST trees)",
        series=(
            ("max per-op latency", "latency_max"),
            ("tree diameter D", "diameter"),
            ("total ratio (vs opt upper bd)", "ratio_lo"),
            ("tree stretch s", "stretch"),
        ),
        notes=("Demmer-Herlihy: sequential ops cost <= D; ratio <= s",),
    ),
    "ablation-trees": Figure(
        "Spanning-tree choice: stretch vs arrow cost (same workload)",
        xlabel="tree (0=mst, 1=bfs, 2=random)",
        series=(("stretch", "stretch"), ("arrow total latency", "total_latency")),
        cases=((("tree", "mst"),), (("tree", "bfs"),), (("tree", "random"),)),
        notes=("lower-stretch trees should give lower arrow cost ([4], [18])",),
    ),
    "ablation-protocols": Figure(
        "Protocol comparison on K_n: messages and latency per op",
        xlabel="protocol (0=arrow/bin, 1=arrow/star, 2=nta-ivy, 3=centralized)",
        series=(("messages/op", "msgs_per_request"), ("latency/op", "latency_mean")),
        cases=(
            (("protocol", "arrow"), ("tree", "binary")),
            (("protocol", "arrow"), ("tree", "star")),
            (("protocol", "adaptive"), ("tree", "binary")),
            (("protocol", "centralized"), ("tree", "binary")),
        ),
        notes=("NTA/Ivy pointers average O(log n) messages/op ([7], [17])",),
    ),
    "ablation-service-time": Figure(
        "Closed-loop total time vs per-message service time",
        unit="sim time",
        x="service_time",
        xlabel="service time (fraction of link latency)",
        notes=("the centre serialises all requests: its cost grows with the CPU's",),
    ),
}


def _series_parts(row: dict[str, Any]) -> tuple[str, str, str, str]:
    """One row's series label parts: schedule family, tree, graph family
    and fault plan (``""`` for none).

    The schedule family is the primary split (it is what every paper
    figure contrasts); tree strategy and graph family join the label
    only when the grid actually sweeps them (:func:`_series_label`), and
    a fault plan always shows (faulted and fault-free rows must never
    average together).
    """
    faults = row.get("faults")
    return (
        str(row.get("schedule", "?")).split("(")[0],
        str(row.get("tree", "?")),
        str(row.get("graph", "?")).split("(")[0],
        f"f[{faults}]" if faults else "",
    )


def _series_label(parts: tuple[str, str, str, str], many_trees: bool,
                  many_graphs: bool) -> str:
    schedule, tree, graph, faults = parts
    kept = [schedule]
    if many_trees:
        kept.append(tree)
    if many_graphs:
        kept.append(graph)
    if faults:
        kept.append(faults)
    return "/".join(kept)


def _meets(row: dict[str, Any], conditions) -> bool:
    return all(row.get(column) == value for column, value in conditions)


def _number(name: str, row: dict[str, Any], column: str) -> float:
    """Column ``column`` of ``row``, as a float."""
    if column not in row:
        numeric = sorted(
            k
            for k, v in row.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        )
        raise ResultsError(
            f"rows of grid {name!r} have no {column!r} column; "
            f"numeric columns: {numeric}"
        )
    value = row[column]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ResultsError(f"column {column!r} is not numeric (got {value!r})")
    return float(value)


def figure_from_rows(
    name: str,
    rows: Iterable[dict[str, Any]],
    *,
    metric: str | None = None,
) -> ExperimentResult:
    """Build the canonical figure for a grid from its rows.

    The figure is :data:`FIGURES` ``[name]``.  ``metric`` overrides its
    series: one per schedule family (split further by tree/graph/fault
    axes when the grid sweeps them) on that column.  Every series point
    averages the rows at its x — the seeds of one cell.  Rows are folded
    as they arrive, so the figure holds a running total and count per
    point, never the rows: a stored run of any size is one streaming read.
    """
    fig = FIGURES.get(name, Figure(f"Grid {name!r} summary"))
    title, unit, column = fig.title, fig.unit, metric or fig.metric
    if metric is not None and metric != fig.metric:
        title, unit = f"Grid {name!r}: {metric}", ""

    fixed = bool(fig.series) and metric is None
    count = 0
    trees, graphs, seeds = set(), set(), set()
    # series key -> x -> [total, count] over the seed axis, totalled in
    # row order as float_total totals a column.  A key is a fixed series'
    # label, or a row's label parts: whether the tree and graph join the
    # label is known only once every row is in, and parts that differ
    # only where the label leaves them out are equal.
    buckets: dict[Any, dict[float, list]] = {
        label: {} for label, *_ in fig.series if fixed
    }
    for row in rows:
        count += 1
        seeds.add(row.get("seed"))
        parts = _series_parts(row)
        trees.add(parts[1])
        graphs.add(parts[2])
        if fig.cases:
            x = next((float(i) for i, case in enumerate(fig.cases) if _meets(row, case)), None)
            if x is None:
                continue
        else:
            x = _number(name, row, fig.x)
        if fixed:
            picks = [(label, col) for label, col, *where in fig.series if _meets(row, where)]
        else:
            picks = [(parts, column)]
        for key, col in picks:
            point = buckets.setdefault(key, {}).setdefault(x, [0, 0])
            point[0] += _number(name, row, col)
            point[1] += 1
    if not count:
        raise ResultsError(f"no rows to build figure {name!r} from")
    if not fixed:
        buckets = {_series_label(parts, len(trees) > 1, len(graphs) > 1): points
                   for parts, points in buckets.items()}

    series = []
    for label in buckets if fixed else sorted(buckets):
        if not buckets[label]:
            continue  # a fixed series no row feeds
        xs = sorted(buckets[label])
        ys = [total / n for total, n in map(buckets[label].get, xs)]
        series.append(Series(label, xs, ys, unit))
    notes = [*fig.notes, f"built from {count} sweep row(s)"]
    if not fixed:
        notes[-1] += f"; metric: {column}"
    if len(seeds) > 1:
        notes.append(f"each point averages {len(seeds)} seed(s)")
    return ExperimentResult(
        experiment_id=name,
        title=title,
        xlabel=fig.xlabel,
        series=series,
        params={"metric": None if fixed else column, "source": "sweep-rows"},
        notes=notes,
    )
