"""Spans, probes and per-layer metrics for the traced pass.

The end-to-end numbers are measured with none of this loaded.  One
separate in-process pass per workload records

* **timeline spans** — wrappers installed here (``src/`` is not edited)
  around the public functions at each layer boundary (``run_sweep``,
  ``execute_cell``, ``orchestrate_sweep``, ``merge_shards``,
  ``ResultsStore.ingest`` ...), nested by call order; and
* **probe spans** (``"probe": true``) — right after each ``execute_cell``
  returns, that cell's children (``cell_seed``, ``build_graph``,
  ``build_tree``, ``build_schedule``, the engine runner,
  ``latency_columns``) are called again on the same inputs and timed one
  by one.  The work is deterministic, so a probe costs what the call
  cost inside ``execute_cell`` — and it runs within a fraction of a
  second of it, which matters on a host whose speed drifts.  A probe's
  ``parent`` is that cell's ``execute_cell`` span (a logical parent — the
  probe's interval lies after it).  Every engine probe is checked against
  the cell's row.

The tracer's clock stops while probes run, so timeline spans never
contain probe time.  A span's self time is its duration minus its
timeline children.  Spans are kept in memory and written by the caller
when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from typing import Any, Callable, Iterator

import repro.results
import repro.sweep
import repro.sweep.executor
import repro.sweep.orchestrator
from repro.apps.directory import arrow_directory, home_directory
from repro.core.fast_arrow import arrow_runner
from repro.core.fast_closed_loop import closed_loop_runner
from repro.faults import run_arrow_faulted
from repro.monitors import ArrowMonitor
from repro.results import ResultsStore, compare_rows
from repro.sweep import (
    OPEN_LOOP_SCHEDULES,
    SweepSpec,
    build_graph,
    build_schedule,
    build_tree,
    cell_seed,
    execute_cell,
    get_family,
    latency_columns,
    persist,
)

from workloads import STORE, Plan

__all__ = ["ENGINES", "PER_LAYER", "Tracer", "instrument", "probe_plan",
           "layer_metrics", "self_times"]

#: Engine names probed when the running code still accepts them.
ENGINES = ("fast", "batch", "message")


class Tracer:
    """In-memory span recorder for one workload's traced pass."""

    def __init__(self, workload: str, first_id: int = 0) -> None:
        self.workload = workload
        #: Span ids count up from here, so several passes share one file.
        self.first_id = first_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[Any, str, Any]] = []
        self._paused_s = 0.0

    def clock(self) -> float:
        """``perf_counter`` minus all time spent inside :meth:`paused`."""
        return time.perf_counter() - self._paused_s

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Stop the clock: what runs inside (probes) is not on the timeline."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - start

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        probe: bool = False,
        parent: int | None = None,
        cell: str | None = None,
        **attrs: Any,
    ) -> Iterator[dict[str, Any]]:
        """Record one span; ``parent`` overrides the enclosing span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "id": self.first_id + len(self.spans),
            "name": name,
            "parent": parent,
            "workload": self.workload,
            "cell": cell,
            "probe": probe,
            **attrs,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`unwrap`."""
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._wrapped.append((owner, attr, original))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Callable[[tuple, Any], dict[str, Any]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""

        def make(original):
            def traced(*args, **kwargs):
                with self.span(name) as record:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        record.update(annotate(args, result))
                    return result

            return traced

        self.replace(owner, attr, make)

    def unwrap(self) -> None:
        """Restore every function :meth:`wrap` replaced."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer, plan: Plan) -> Iterator[None]:
    """Install the timeline wrappers for the duration of the pipeline.

    Each entry names the attribute the callers resolve *at call time*
    (``repro.cli`` imports these inside ``main``), so patching the
    module attribute is enough.  ``execute_cell`` additionally probes the
    cell it just ran, with the clock stopped.  Shard workers forked by
    the orchestrator inherit the wrappers, but their spans would die
    with them: there ``execute_cell`` runs bare, and :func:`probe_plan`
    executes those cells once more in this process.
    """
    probe_args = _probe_args(plan)
    pid = os.getpid()

    def execute_and_probe(original):
        def traced(cell):
            if os.getpid() != pid:
                return original(cell)
            with tracer.span("executor.execute_cell",
                             cell=cell.cell_id) as record:
                row = original(cell)
            with tracer.paused():
                _probe_cell(tracer, cell, row, record["id"],
                            *probe_args[cell.cell_id])
            return row

        return traced

    points = [
        (SweepSpec, "cells", "spec.cells", None),
        (repro.sweep, "run_sweep", "executor.run_sweep", None),
        (repro.sweep.orchestrator, "orchestrate_sweep",
         "orchestrator.orchestrate_sweep",
         lambda args, summary: {"retries": summary["retries_used"]}),
        (persist, "merge_shards", "persist.merge_shards",
         lambda args, result: {"rows": result[0]}),
        (persist, "diff_rows", "persist.diff_rows", None),
        (ResultsStore, "ingest", "store.ingest",
         lambda args, report: {"new_rows": report.new_rows,
                               "rows": report.total_rows}),
        (ResultsStore, "grid_sketch", "stats.grid_sketch", None),
        (repro.results, "figure_from_rows", "figures.figure_from_rows", None),
        (repro.results, "compare_rows", "compare.compare_rows", None),
    ]
    try:
        tracer.replace(repro.sweep.executor, "execute_cell", execute_and_probe)
        for owner, attr, name, annotate in points:
            tracer.wrap(owner, attr, name, annotate)
        yield
    finally:
        tracer.unwrap()


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def available_engines() -> tuple[str, ...]:
    """Engine names the running code accepts (a removed one is skipped)."""
    names = []
    for engine in ENGINES:
        try:
            arrow_runner(engine)
        except (ValueError, ImportError):
            continue
        names.append(engine)
    return tuple(names)


def _cell_kit(cell, derived: int, probe) -> dict[str, Any]:
    """Build one cell's inputs under probe spans and return how to run it.

    Mirrors the registered families' builders through the layers' public
    functions only; the engine probes are checked against the stored
    row, so drift from ``repro.sweep.families`` cannot go unnoticed.
    ``run(engine, monitored, empty_plan)`` executes the cell's engine.
    """
    family = cell.schedule.family
    params = cell.schedule.kwargs()
    graph = probe("spec.build_graph", lambda: build_graph(cell.graph, derived))
    common = {"seed": derived, "service_time": cell.service_time}

    def tree_probe():
        return probe("spec.build_tree",
                     lambda: build_tree(cell.tree, graph, derived))

    if family in OPEN_LOOP_SCHEDULES:
        tree = tree_probe()
        schedule = probe(
            "spec.build_schedule",
            lambda: build_schedule(cell.schedule, graph.num_nodes, derived),
        )

        def run(engine, monitored=False, empty_plan=False):
            monitor = ArrowMonitor(tree) if monitored else None
            if cell.faults or empty_plan:
                result, _ = run_arrow_faulted(
                    graph, tree, schedule, cell.faults, engine=engine,
                    on_event=monitor, **common,
                )
            else:
                result = arrow_runner(engine)(
                    graph, tree, schedule, on_event=monitor, **common
                )
            if monitor is not None:
                monitor.finalize(expected=len(schedule))
            return result

        return {
            "run": run,
            "outcome": lambda r: (
                len(schedule), r.makespan, r.network_stats["messages_sent"]
            ),
            "latencies": lambda r: [r.latency(rid) for rid in r.completions],
        }

    if family in ("closed_arrow", "closed_centralized"):
        protocol = family.removeprefix("closed_")
        second = (
            tree_probe() if protocol == "arrow" else int(params.get("center", 0))
        )
        loop = {
            "requests_per_proc": int(params["requests_per_proc"]),
            "think_time": float(params["think_time"]),
        }
        return {
            "run": lambda engine: closed_loop_runner(protocol, engine)(
                graph, second, **loop, **common
            ),
            "outcome": lambda r: (r.total_requests, r.makespan, r.messages_sent),
            "latencies": lambda r: r.latencies,
        }

    if family in ("directory_arrow", "directory_home"):
        loop = {
            "acquisitions_per_proc": int(params["acquisitions_per_proc"]),
            "cs_time": float(params["cs_time"]),
        }
        if family == "directory_arrow":
            tree = tree_probe()

            def run(engine):
                return arrow_directory(graph, tree, **loop, **common)
        else:
            home = int(params.get("home", 0))

            def run(engine):
                return home_directory(graph, home, **loop, **common)

        return {
            "run": run,
            "outcome": lambda r: (
                r.total_acquisitions, r.makespan, r.messages_sent
            ),
            "latencies": None,
        }

    raise NotImplementedError(f"no probe for cell family {family!r}")


def _probe_cell(
    tracer: Tracer,
    cell,
    row: dict[str, Any],
    parent: int,
    engines: tuple[str, ...],
    message: bool,
    empty_plan: bool,
) -> None:
    """Time one cell's children one by one, as logical children of ``parent``."""

    def probe(name: str, fn: Callable[[], Any], **attrs: Any) -> Any:
        with tracer.span(name, probe=True, parent=parent, cell=cell.cell_id,
                         **attrs):
            return fn()

    derived = probe("spec.cell_seed", lambda: cell_seed(cell))
    kit = _cell_kit(cell, derived, probe)
    sweeps_engines = get_family(cell.schedule.family).uses_engine
    own = cell.engine if sweeps_engines else "message"
    expected = (row["requests"], row["makespan"], row["messages_sent"])

    def engine_probe(engine: str, monitored: bool = False):
        with tracer.span(
            "core.engine", probe=True, parent=parent, cell=cell.cell_id,
            engine=engine, own=engine == own, monitored=monitored,
            as_run=engine == own and monitored == cell.monitors,
            faulted=bool(cell.faults), requests=row["requests"],
            events=row["requests"] + row["messages_sent"],
        ) as record:
            result = (
                kit["run"](engine, monitored=True) if monitored
                else kit["run"](engine)
            )
        record["match"] = kit["outcome"](result) == expected
        return result

    result = engine_probe(own)
    if cell.monitors:
        engine_probe(own, monitored=True)
    if sweeps_engines:
        for engine in engines:
            if engine != own and (engine != "message" or message):
                engine_probe(engine)
    if empty_plan and not cell.faults:
        probe("faults.empty_plan", lambda: kit["run"](own, empty_plan=True))
    if kit["latencies"] is not None:
        probe(
            "stats.latency_columns",
            lambda: latency_columns(kit["latencies"](result)),
            requests=row["requests"],
        )


def _probe_args(plan: Plan) -> dict[str, tuple]:
    """Per cell id: (engines to try, probe the message engine?, probe the
    empty fault plan?).  The message engine is several times slower, so it
    is probed only on the first graph of each grid's graph axis — the
    smallest in every preset."""
    engines = available_engines()
    return {
        cell.cell_id: (engines, cell.graph == grid.spec.graphs[0],
                       any(grid.spec.faults))
        for grid in plan.grids if grid.swept
        for cell in grid.spec.cells()
    }


def probe_plan(tracer: Tracer, plan: Plan, workdir: str) -> list[dict[str, Any]]:
    """Run the probes the pipeline could not; returns all stored rows.

    Runs after the pipeline with the wrappers gone: cells the timeline
    never saw in-process — those of orchestrated shards — are executed
    and probed here, then each grid's rows go once more through the
    persist/store/compare functions.
    """
    probe_args = _probe_args(plan)
    executed = {
        s["cell"] for s in tracer.spans if s["name"] == "executor.execute_cell"
    }
    store = ResultsStore(os.path.join(workdir, STORE))
    all_rows: list[dict[str, Any]] = []
    with tracer.span("harness.probes", probe=True):
        for grid in plan.grids:
            key = grid.spec.spec_hash()
            raw = os.path.join(workdir, grid.out)
            with tracer.span("store.rows_read", probe=True):
                rows = list(store.rows(key))
            for cell in grid.spec.cells() if grid.swept else ():
                if cell.cell_id not in executed:
                    with tracer.span("executor.execute_cell", probe=True,
                                     cell=cell.cell_id) as record:
                        row = execute_cell(cell)
                    _probe_cell(tracer, cell, row, record["id"],
                                *probe_args[cell.cell_id])

            scratch = os.path.join(workdir, "probe." + grid.out)
            with tracer.span("persist.write", probe=True,
                             rows=len(rows)) as record:
                with open(scratch, "w", encoding="utf-8") as fh:
                    for row in rows:
                        fh.write(persist.dumps_row(row) + "\n")
                        fh.flush()
            record["bytes"] = os.path.getsize(scratch)
            with tracer.span("persist.compact", probe=True):
                persist.compact(scratch)
            with tracer.span("persist.diff_rows", probe=True):
                persist.diff_rows(raw, store.rows_path(key))
            with tracer.span("compare.compare_rows", probe=True):
                compare_rows(store.rows(key), persist.iter_rows(raw),
                             max_delta_pct=0.0)
            with tracer.span("store.reingest", probe=True):
                store.ingest(grid.spec, raw)
            all_rows += rows
    return all_rows


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _engine_metrics() -> list[tuple[str, str, str]]:
    return [
        metric
        for e in ENGINES
        for metric in (
            (f"core.{e}.events_per_s", "1/s", "higher"),
            (f"core.{e}.us_per_event", "us", "lower"),
            (f"core.{e}.requests_per_s", "1/s", "higher"),
        )
    ]


#: Every per-layer metric: (name, unit, better).  A metric whose layer a
#: workload does not exercise (or whose engine no longer exists) reads 0.
PER_LAYER: list[tuple[str, str, str]] = [
    ("cli.import_s", "s", "lower"),
    ("cli.steps", "count", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("spec.expand_s", "s", "lower"),
    ("spec.cells", "count", "higher"),
    ("spec.cell_seed_s", "s", "lower"),
    ("spec.build_graph_s", "s", "lower"),
    ("spec.build_tree_s", "s", "lower"),
    ("spec.build_schedule_s", "s", "lower"),
    ("spec.build_share", "ratio", "lower"),
    ("core.engine_s", "s", "lower"),
    ("core.engine_share", "ratio", "lower"),
    ("core.events", "count", "lower"),
    ("core.requests", "count", "higher"),
    ("core.messages", "count", "lower"),
    *_engine_metrics(),
    ("core.engine_mismatch", "count", "lower"),
    ("faults.engine_s", "s", "lower"),
    ("faults.us_per_event", "us", "lower"),
    ("faults.empty_plan_ratio", "ratio", "lower"),
    ("faults.messages_dropped", "count", "lower"),
    ("faults.requests_lost", "count", "lower"),
    ("faults.repairs_run", "count", "lower"),
    ("monitors.busy_s", "s", "lower"),
    ("monitors.overhead_ratio", "ratio", "lower"),
    ("stats.latency_columns_s", "s", "lower"),
    ("stats.us_per_request", "us", "lower"),
    ("stats.share", "ratio", "lower"),
    ("stats.grid_sketch_s", "s", "lower"),
    ("stats.sketch_rows_per_s", "1/s", "higher"),
    ("persist.write_s", "s", "lower"),
    ("persist.write_rows_per_s", "1/s", "higher"),
    ("persist.bytes", "B", "lower"),
    ("persist.compact_s", "s", "lower"),
    ("persist.merge_s", "s", "lower"),
    ("persist.merge_rows_per_s", "1/s", "higher"),
    ("persist.diff_rows_s", "s", "lower"),
    ("executor.glue_s", "s", "lower"),
    ("executor.run_sweep_self_s", "s", "lower"),
    ("orchestrator.wall_s", "s", "lower"),
    ("orchestrator.overhead_s", "s", "lower"),
    ("orchestrator.shard_retries", "count", "lower"),
    ("store.ingest_s", "s", "lower"),
    ("store.ingest_rows_per_s", "1/s", "higher"),
    ("store.reingest_s", "s", "lower"),
    ("store.rows_read_s", "s", "lower"),
    ("figures.table_s", "s", "lower"),
    ("compare.compare_rows_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]


def _duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time per timeline (non-probe) span id: duration minus children."""
    own = {s["id"]: _duration(s) for s in spans if not s["probe"]}
    for s in spans:
        if not s["probe"] and s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[dict[str, Any]],
    plan: Plan,
    rows: list[dict[str, Any]],
    *,
    workers: int,
    cli_import_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Reduce one traced pass to the :data:`PER_LAYER` metrics.

    Shares are of the worker-seconds the pipeline had
    (``workers × pipeline wall``), so the serial probe times of a
    two-worker run are not compared against a one-worker wall.
    """

    def select(name: str, probe: bool, **where: Any) -> list[dict[str, Any]]:
        return [
            s for s in spans
            if s["name"] == name and s["probe"] == probe
            and all(s.get(k) == v for k, v in where.items())
        ]

    def seconds(name: str, probe: bool, **where: Any) -> float:
        return sum(_duration(s) for s in select(name, probe, **where))

    own = self_times(spans)
    pipeline = select("harness.pipeline", False)[0]
    wall = _duration(pipeline)
    worker_s = workers * wall
    m = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)

    steps = select("cli.main", False)
    m["cli.import_s"] = cli_import_s
    m["cli.steps"] = len(steps) + plan.shards
    m["cli.main_self_s"] = sum(own[s["id"]] for s in steps)

    m["spec.expand_s"] = seconds("spec.cells", False)
    m["spec.cells"] = len(rows)
    for part in ("cell_seed", "build_graph", "build_tree", "build_schedule"):
        m[f"spec.{part}_s"] = seconds(f"spec.{part}", True)
    build_s = sum(
        m[f"spec.{p}_s"]
        for p in ("cell_seed", "build_graph", "build_tree", "build_schedule")
    )
    m["spec.build_share"] = _ratio(build_s, worker_s)

    engine = select("core.engine", True)
    plain_own = [s for s in engine if s["own"] and not s["monitored"]]
    m["core.engine_s"] = sum(_duration(s) for s in plain_own)
    m["core.engine_share"] = _ratio(m["core.engine_s"], worker_s)
    m["core.requests"] = sum(r["requests"] for r in rows)
    m["core.messages"] = sum(r["messages_sent"] for r in rows)
    m["core.events"] = m["core.requests"] + m["core.messages"]
    for name in ENGINES:
        runs = [s for s in engine if s["engine"] == name and not s["monitored"]]
        busy = sum(_duration(s) for s in runs)
        events = sum(s["events"] for s in runs)
        m[f"core.{name}.events_per_s"] = _ratio(events, busy)
        m[f"core.{name}.us_per_event"] = _ratio(busy * 1e6, events)
        m[f"core.{name}.requests_per_s"] = _ratio(
            sum(s["requests"] for s in runs), busy
        )
    m["core.engine_mismatch"] = sum(1 for s in engine if not s["match"])

    faulted = [s for s in plain_own if s["faulted"]]
    m["faults.engine_s"] = sum(_duration(s) for s in faulted)
    m["faults.us_per_event"] = _ratio(
        m["faults.engine_s"] * 1e6, sum(s["events"] for s in faulted)
    )
    empty = select("faults.empty_plan", True)
    stock = {s["cell"]: _duration(s) for s in plain_own}
    m["faults.empty_plan_ratio"] = _ratio(
        sum(_duration(s) for s in empty), sum(stock[s["cell"]] for s in empty)
    )
    for column in ("messages_dropped", "requests_lost", "repairs_run"):
        m[f"faults.{column}"] = sum(r.get(column, 0) for r in rows)
    watched = [s for s in engine if s["monitored"]]
    unwatched_s = sum(stock[s["cell"]] for s in watched)
    watched_s = sum(_duration(s) for s in watched)
    m["monitors.busy_s"] = watched_s - unwatched_s
    m["monitors.overhead_ratio"] = _ratio(watched_s, unwatched_s)

    latency = select("stats.latency_columns", True)
    m["stats.latency_columns_s"] = sum(_duration(s) for s in latency)
    m["stats.us_per_request"] = _ratio(
        m["stats.latency_columns_s"] * 1e6, sum(s["requests"] for s in latency)
    )
    m["stats.share"] = _ratio(m["stats.latency_columns_s"], worker_s)
    sketches = select("stats.grid_sketch", False)
    m["stats.grid_sketch_s"] = sum(_duration(s) for s in sketches)
    m["stats.sketch_rows_per_s"] = _ratio(
        len(rows) if sketches else 0, m["stats.grid_sketch_s"]
    )

    writes = select("persist.write", True)
    m["persist.write_s"] = sum(_duration(s) for s in writes)
    m["persist.write_rows_per_s"] = _ratio(len(rows), m["persist.write_s"])
    m["persist.bytes"] = sum(s["bytes"] for s in writes)
    m["persist.compact_s"] = seconds("persist.compact", True)
    merges = select("persist.merge_shards", False)
    m["persist.merge_s"] = sum(_duration(s) for s in merges)
    m["persist.merge_rows_per_s"] = _ratio(
        sum(s["rows"] for s in merges), m["persist.merge_s"]
    )
    m["persist.diff_rows_s"] = seconds("persist.diff_rows", True)

    cell_spans = select("executor.execute_cell", False) or select(
        "executor.execute_cell", True
    )
    cell_s = sum(_duration(s) for s in cell_spans)
    as_run_s = sum(_duration(s) for s in engine if s["as_run"])
    m["executor.glue_s"] = (
        cell_s - build_s - as_run_s - m["stats.latency_columns_s"]
    )
    sweeps = select("executor.run_sweep", False)
    if sweeps:
        m["executor.run_sweep_self_s"] = (
            sum(own[s["id"]] for s in sweeps) - m["persist.write_s"]
        )
    orchestrated = select("orchestrator.orchestrate_sweep", False)
    if orchestrated:
        m["orchestrator.wall_s"] = sum(_duration(s) for s in orchestrated)
        m["orchestrator.overhead_s"] = (
            m["orchestrator.wall_s"] - cell_s / workers
        )
        m["orchestrator.shard_retries"] = sum(s["retries"] for s in orchestrated)

    ingests = [s for s in select("store.ingest", False) if s["new_rows"]]
    m["store.ingest_s"] = sum(_duration(s) for s in ingests)
    m["store.ingest_rows_per_s"] = _ratio(
        sum(s["new_rows"] for s in ingests), m["store.ingest_s"]
    )
    m["store.reingest_s"] = seconds("store.reingest", True)
    m["store.rows_read_s"] = seconds("store.rows_read", True)
    m["figures.table_s"] = (
        sum(_duration(s) for s in steps if s["step"].startswith("table"))
        - m["stats.grid_sketch_s"]
    )
    m["compare.compare_rows_s"] = seconds("compare.compare_rows", True)

    m["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    m["trace.unattributed_share"] = _ratio(
        sum(own[s["id"]] for s in spans
            if not s["probe"] and s["name"].startswith("harness.")),
        wall,
    )
    return m
