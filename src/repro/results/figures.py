"""Canonical tables/plots per paper figure, built from sweep rows.

The sweep grids cover the paper's measured figures — ``fig10``
(closed-loop arrow vs centralized), ``fig11`` (hops per operation),
``directory`` (§5.1 arrow vs home-based) — so their canonical
:class:`~repro.experiments.records.ExperimentResult` is a pure function
of the rows: group by schedule family, x = system size, average over
seeds.  This is the one producer of those figures: ``repro-arrow
fig10|fig11|directory`` feed it the rows of an in-memory sweep,
``results table|plot`` the rows of a stored run (no simulation re-runs;
regenerating a figure from the results store is a read).

Non-grid experiments (fig9, the competitive/lower-bound theorem sweeps)
are not stored: ``repro-arrow --json`` writes their
:class:`ExperimentResult` documents.  This module adds the
:func:`fig9_result` adapter for the fig9 report, which historically
rendered as key/value pairs only.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.queueing import float_total
from repro.errors import ResultsError
from repro.experiments.records import ExperimentResult, Series

__all__ = ["FIGURE_METRICS", "figure_from_rows", "fig9_result"]

#: Grid name -> (default metric column, unit, title).  Any other grid
#: falls back to ``makespan`` with a generic title; ``--metric``
#: overrides the column for all of them.
FIGURE_METRICS: dict[str, tuple[str, str, str]] = {
    "fig10": (
        "makespan",
        "sim time",
        "Arrow vs centralized: total time for closed-loop enqueues",
    ),
    "fig11": ("mean_hops", "hops", "Arrow hops per operation"),
    "directory": (
        "makespan",
        "sim time",
        "Arrow vs home-based directory: closed-loop makespan",
    ),
}


def _series_key(row: dict[str, Any], *, many_trees: bool, many_graphs: bool) -> str:
    """Stable series label for one row.

    The schedule family is the primary split (it is what every paper
    figure contrasts); tree strategy and graph family join the label
    only when the grid actually sweeps them, and a fault plan always
    shows (faulted and fault-free rows must never average together).
    """
    parts = [str(row.get("schedule", "?")).split("(")[0]]
    if many_trees:
        parts.append(str(row.get("tree", "?")))
    if many_graphs:
        parts.append(str(row.get("graph", "?")).split("(")[0])
    faults = row.get("faults")
    if faults:
        parts.append(f"f[{faults}]")
    return "/".join(parts)


def figure_from_rows(
    name: str,
    rows: Iterable[dict[str, Any]],
    *,
    metric: str | None = None,
) -> ExperimentResult:
    """Build the canonical figure for a grid from its rows.

    ``metric`` selects the y column (default per figure, see
    :data:`FIGURE_METRICS`); x is the system size ``n``; each series is
    one schedule family (split further by tree/graph/fault axes when the
    grid sweeps them), with the metric averaged over seeds per x.
    """
    default_metric, unit, title = FIGURE_METRICS.get(
        name, ("makespan", "", f"Grid {name!r} summary")
    )
    if metric is not None and metric != default_metric:
        unit = ""
        title = f"Grid {name!r}: {metric}"
    column = metric or default_metric

    rows = list(rows)
    if not rows:
        raise ResultsError(f"no rows to build figure {name!r} from")
    many_trees = len({r.get("tree") for r in rows}) > 1
    many_graphs = (
        len({str(r.get("graph", "")).split("(")[0] for r in rows}) > 1
    )
    # (series key, n) -> metric values over the seed axis.
    buckets: dict[str, dict[float, list[float]]] = {}
    seeds: set[Any] = set()
    for row in rows:
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
            raise ResultsError(
                f"column {column!r} is not numeric (got {value!r})"
            )
        key = _series_key(
            row, many_trees=many_trees, many_graphs=many_graphs
        )
        x = float(row.get("n", 0))
        buckets.setdefault(key, {}).setdefault(x, []).append(float(value))
        seeds.add(row.get("seed"))

    series = []
    for key in sorted(buckets):
        xs = sorted(buckets[key])
        ys = [float_total(buckets[key][x]) / len(buckets[key][x]) for x in xs]
        series.append(Series(key, xs, ys, unit))
    notes = [f"built from {len(rows)} sweep row(s); metric: {column}"]
    if len(seeds) > 1:
        notes.append(f"each point averages {len(seeds)} seed(s)")
    return ExperimentResult(
        experiment_id=name,
        title=title,
        xlabel="n (nodes)",
        series=series,
        params={"metric": column, "source": "sweep-rows"},
        notes=notes,
    )


def fig9_result(report: Any) -> ExperimentResult:
    """Adapt a :class:`~repro.experiments.fig9.Fig9Report` to a record.

    Fig. 9 is a single lower-bound instance, not a sweep, so its
    canonical record is one x point (the instance diameter ``D``) with
    one series per cost measure — enough to tabulate and compare
    without re-deriving the instance (``repro-arrow --json f fig9``).
    """
    x = [float(report.D)]
    series = [
        Series("arrow cost", x, [float(report.arrow_cost)], "Manhattan"),
        Series("opt upper", x, [float(report.opt_upper)], "Manhattan"),
        Series("opt lower", x, [float(report.opt_lower)], "Manhattan"),
        Series("ratio", x, [float(report.ratio)]),
        Series("simulated cost", x, [float(report.sim_cost)]),
    ]
    return ExperimentResult(
        experiment_id="fig9",
        title="Lower-bound instance costs",
        xlabel="D",
        series=series,
        params={
            "variant": report.variant,
            "k": report.k,
            "requests": report.num_requests,
            "sweep_target": report.sweep_target,
            "comb_weight": report.comb_weight,
        },
        notes=["single-instance record (Fig. 9); see the CLI for the picture"],
    )
