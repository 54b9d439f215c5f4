"""Sweep specifications: declarative grids and their expansion into cells.

A :class:`SweepSpec` is pure data — strings, numbers and tuples — so it
pickles cheaply across worker processes and round-trips through JSON.
Its axes are declared once, in the table ``_AXES``: each checks its
values, labels its cell-id segment and gives its ``spec_hash`` form.
Expansion order is part of the contract: cells are enumerated in the
nested-loop order ``graphs → trees → schedules → seeds → faults`` with a
stable ``cell_id`` per cell, so a sweep's JSONL output is byte-for-byte
reproducible regardless of how many workers execute it.

Per-cell randomness derives from :func:`repro.sim.rng.spawn_rng` keyed by
the cell's axes (not its position), so inserting a new axis value never
perturbs the draws of existing cells.  The theorem families (``ratio``,
``lowerbound``) draw from the cell's master seed instead, so cells that
differ only in tree or protocol replay one schedule.

Declaring a grid compiles no simulator and no tree layer: the tree
constructors load on the first :func:`build_tree`.  The graph generators
(:data:`GRAPH_BUILDERS`, whose signatures check graph parameters) and
:mod:`repro.sweep.families` with :mod:`repro.workloads.schedules` stay
loaded, because :meth:`ScheduleSpec.of` validates schedule parameters
through the cell family of that name.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, replace
from itertools import product
from math import prod
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.core.engines import ENGINES, engine_error_message
from repro.errors import SweepError, require_time
from repro.fault_plan import parse_fault_plan
from repro.graphs.generators import (
    balanced_binary_tree_graph,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    gnp_connected_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_geometric_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.graph import Graph
from repro.sim.rng import first_integer
from repro.sweep.registry import (
    count,
    duration,
    fraction,
    get_family,
    nodes,
    non_negative_int,
    positive_real,
)
from repro.workloads import schedules as _schedules

if TYPE_CHECKING:
    from repro.spanning.tree import SpanningTree

__all__ = [
    "GraphSpec",
    "ScheduleSpec",
    "SweepCell",
    "SweepSpec",
    "GRAPH_BUILDERS",
    "GRIDS",
    "LOWERBOUND_AXES",
    "OPEN_LOOP_SCHEDULES",
    "TREE_BUILDERS",
    "build_graph",
    "build_tree",
    "build_schedule",
    "cell_seed",
    "directory_grid",
    "fig9_grid",
    "fig10_grid",
    "fig11_grid",
    "mixed_grid",
    "oneshot_grid",
    "protocol_ablation_grid",
    "sequential_grid",
    "service_time_grids",
    "smoke_grid",
    "thm319_grid",
    "thm321_grid",
    "thm41_grid",
    "thm42_grid",
    "tree_ablation_grid",
]

#: Graph family name -> generator (all from :mod:`repro.graphs.generators`).
GRAPH_BUILDERS = {
    "complete": complete_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "binary_tree": balanced_binary_tree_graph,
    "grid": grid_graph,
    "torus": torus_graph,
    "hypercube": hypercube_graph,
    "geometric": random_geometric_graph,
    "gnp": gnp_connected_graph,
    "caterpillar": caterpillar_graph,
    "lollipop": lollipop_graph,
}
#: Families whose generator takes a ``seed`` argument.
_SEEDED_GRAPHS = frozenset({"geometric", "gnp"})

#: Tree strategy name -> the name of its constructor in
#: :mod:`repro.spanning.construct`.  A spec validates its tree axis
#: against the keys; :func:`build_tree` imports the module on first use,
#: so reading stored rows never compiles the tree layer.
TREE_BUILDERS = {
    "bfs": "bfs_tree",
    "mst": "mst_prim",
    "binary": "balanced_binary_overlay",
    "star": "star_overlay",
    "random": "random_spanning_tree",
}

#: Open-loop schedule family names, with the parameters each accepts and
#: their kinds.  These all share one cell family behaviour (the open-loop
#: arrow runner, :mod:`repro.sweep.families`); :func:`build_schedule`
#: instantiates the actual :class:`~repro.core.requests.RequestSchedule`.
#: Sizes are per node — ``per_node`` requests (default 4) and
#: ``rate_per_node`` arrivals per time unit (default 0.5) for each node —
#: so one spec scales across the graph axis, and its label names what
#: every cell runs.
_SIZE = {"per_node": count}
_RATE = {"rate_per_node": positive_real}
OPEN_LOOP_SCHEDULES = {
    "one_shot": {},
    "sequential": {"gap": positive_real},
    "poisson": {**_SIZE, **_RATE},
    "bursty": {
        **_SIZE,
        "bursts": non_negative_int,
        "burst_size": non_negative_int,
        "burst_span": duration,
        "idle_gap": duration,
    },
    "hotspot": {**_SIZE, **_RATE, "hot_nodes": nodes, "hot_fraction": fraction},
    "random": {**_SIZE, "horizon": positive_real},
}


class _FamilySpec:
    """An axis value that names a family and its parameters, sorted by name."""

    __slots__ = ()
    family: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, family: str, **params: object):
        """Build a spec from keyword parameters, checked here (and again by
        :class:`SweepSpec` for a spec built without ``of``), so a typo fails
        at spec-build time with a named error rather than inside a worker
        mid-sweep."""
        spec = cls(family, tuple(sorted(params.items())))
        spec._check()
        return spec

    def kwargs(self) -> dict[str, object]:
        """The parameters as a dict."""
        return dict(self.params)

    def label(self) -> str:
        """Stable human-readable id component, e.g. ``complete(n=16)``."""
        return f"{self.family}({','.join(f'{k}={v}' for k, v in self.params)})"

    def _canonical(self) -> dict:
        return {"family": self.family, "params": [[k, v] for k, v in self.params]}


@dataclass(frozen=True, slots=True)
class GraphSpec(_FamilySpec):
    """One point on the graph-family axis: family name + generator kwargs."""

    family: str
    params: tuple[tuple[str, object], ...] = ()

    def _check(self) -> None:
        """Reject an unknown graph family, or a parameter name its
        generator's signature lacks."""
        if self.family not in GRAPH_BUILDERS:
            raise SweepError(f"unknown graph family {self.family!r}; know {sorted(GRAPH_BUILDERS)}")
        accepted = set(inspect.signature(GRAPH_BUILDERS[self.family]).parameters)
        unknown = set(self.kwargs()) - accepted
        if unknown:
            raise SweepError(
                f"graph family {self.family!r} does not accept {sorted(unknown)}; "
                f"known parameters: {sorted(accepted)}"
            )


@dataclass(frozen=True, slots=True)
class ScheduleSpec(_FamilySpec):
    """One point on the schedule-family axis: family name + parameters.

    The open-loop families that draw a number of requests (``poisson``,
    ``bursty``, ``hotspot``, ``random``) are sized per node only —
    ``per_node`` requests and ``rate_per_node`` arrivals — so one spec
    scales across the graph axis and its label names what every cell
    runs (:data:`OPEN_LOOP_SCHEDULES`).
    """

    family: str
    params: tuple[tuple[str, object], ...] = ()

    def _check(self) -> None:
        """Check the parameter names and kinds against the cell family of
        that name: ``per_node=0`` or ``count=7.9`` fails here."""
        get_family(self.family).validate_params(self.kwargs())


def _check_tree(strategy: str) -> None:
    if strategy not in TREE_BUILDERS:
        raise SweepError(f"unknown tree strategy {strategy!r}; know {sorted(TREE_BUILDERS)}")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise SweepError(engine_error_message(engine))


def _fault_label(plan: str) -> str:
    # Parse errors (FaultPlanError) are SweepErrors already.
    return parse_fault_plan(plan).label()


def _same(value: Any) -> Any:
    return value


class _Axis(NamedTuple):
    """One dimension of every grid: :class:`SweepSpec`'s ``field``, carried
    by each cell in :class:`SweepCell`'s ``cell_field``.

    ``check`` rejects a value as given; ``cell`` maps it to what cells
    carry.  Of that, ``key`` must differ across the axis, ``label`` is the
    cell-id segment (none for ``default``; ``label=None``: never) and
    ``canonical`` what ``spec_hash`` hashes.  A value other than
    ``default`` needs the cell family capability ``needs[0]`` (else the
    error says ``needs[1]``).  A ``scalar`` is one value for all cells.
    """

    field: str
    cell_field: str
    check: Callable[[Any], object]
    label: Callable[[Any], str] | None
    cell: Callable[[Any], Any] = _same
    key: Callable[[Any], Any] = _same
    canonical: Callable[[Any], Any] = _same
    default: Any = None
    needs: tuple[str, str] | None = None
    scalar: bool = False

    def given(self, spec: SweepSpec) -> tuple:
        value = getattr(spec, self.field)
        return (value,) if self.scalar else value

    def segment(self, value: Any) -> str:
        if self.label is None or value == self.default:
            return ""
        return "/" + self.label(value)


#: Every grid's axes in grid order: cells are their nested loops (a scalar
#: is one value) and a cell id joins their segments, as in
#: ``complete(n=8)/bfs/one_shot()/s0/st0.1/f[crash@2:1]``.
_AXES = (
    _Axis("graphs", "graph", GraphSpec._check, GraphSpec.label, key=GraphSpec.label,
          canonical=GraphSpec._canonical),
    _Axis("trees", "tree", _check_tree, str),
    _Axis("schedules", "schedule", ScheduleSpec._check, ScheduleSpec.label,
          key=ScheduleSpec.label, canonical=ScheduleSpec._canonical),
    _Axis("seeds", "seed", lambda seed: non_negative_int("seeds", seed), "s{}".format),
    # The engines are bit-identical, so no cell id names one.
    _Axis("engine", "engine", _check_engine, None, scalar=True),
    # Checked, not converted: the value as given is part of spec_hash.
    _Axis("service_time", "service_time", lambda t: require_time("service_time", t, SweepError),
          "st{}".format, default=0.0, scalar=True),
    _Axis("faults", "faults", _fault_label, "f[{}]".format, cell=_fault_label, default="",
          needs=("supports_faults", "the fault axis (plan {!r}); faults apply to the "
                 "open-loop arrow families only")),
)


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One fully instantiated grid cell (still declarative — no objects)."""

    index: int
    cell_id: str
    graph: GraphSpec
    tree: str
    schedule: ScheduleSpec
    seed: int
    engine: str
    service_time: float
    #: Canonical fault-plan label (``""`` = fault-free; see
    #: :func:`repro.fault_plan.parse_fault_plan`).
    faults: str = ""
    #: Attach runtime protocol monitors to this cell's run.  Monitors
    #: never change the row — they only raise on invariant violations —
    #: so the flag is not part of the cell identity.
    monitors: bool = False


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A declarative sweep grid over the axes of ``_AXES``: graphs, trees,
    schedules, seeds and faults, and the scalars engine and service time,
    which every cell shares.  No axis may be empty or repeat a value."""

    name: str
    graphs: tuple[GraphSpec, ...]
    trees: tuple[str, ...]
    schedules: tuple[ScheduleSpec, ...]
    seeds: tuple[int, ...]
    engine: str = "fast"
    service_time: float = 0.0
    #: Fault plans (:func:`repro.fault_plan.parse_fault_plan`); the default
    #: single empty plan is a fault-free grid.
    faults: tuple[str, ...] = ("",)
    #: Attach runtime protocol monitors to every cell of the families
    #: that support them (open-loop and ``closed_arrow``); a grid with
    #: none of those is rejected.  Output rows are unchanged; an
    #: invariant violation aborts the sweep with
    #: :class:`repro.errors.MonitorViolation`.
    monitors: bool = False

    def __post_init__(self) -> None:
        families = [get_family(s.family) for s in self.schedules]
        for axis in _AXES:
            given = axis.given(self)
            if not given:
                use = "" if axis.default is None else f"; use ({axis.default!r},) for none"
                raise SweepError(f"{axis.field} axis must not be empty{use}")
            for value in given:
                axis.check(value)
            values = [axis.cell(v) for v in given]
            # A repeated value would give two cells one cell id.
            seen: set = set()
            for key in map(axis.key, values):
                if key in seen:
                    raise SweepError(f"{axis.field} axis repeats {key!r}: every cell id must be distinct")
                seen.add(key)
            if axis.needs:
                flag, text = axis.needs
                lacking = [s.family for s, f in zip(self.schedules, families) if not getattr(f, flag)]
                for value in values:
                    if value != axis.default and lacking:
                        raise SweepError(
                            f"cell family {lacking[0]!r} does not support " + text.format(value)
                        )
        if self.monitors and not any(f.supports_monitors for f in families):
            names = sorted({s.family for s in self.schedules})
            raise SweepError(
                f"monitors would watch no cell: cell families {names} attach "
                "none; monitors apply to the open-loop arrow families and "
                "closed_arrow only"
            )

    def _values(self) -> list[list]:
        """Each axis's values as its cells carry them, in grid order."""
        return [[axis.cell(v) for v in axis.given(self)] for axis in _AXES]

    def cell_ids(self) -> list[str]:
        """The cell ids of :meth:`cells`, in grid order, without the cells.

        The one cell-id format: it names every value that can change a
        row (not the engine, nor ``monitors``), so resuming a
        re-parametrised sweep into an old file recomputes rather than
        silently keeping stale rows.
        """
        # Each value's segment is built once, not once per cell; the
        # graph's leading "/" is dropped.
        segments = [list(map(axis.segment, values)) for axis, values in zip(_AXES, self._values())]
        return ["".join(parts)[1:] for parts in product(*segments)]

    def cells(self) -> list[SweepCell]:
        """Expand the grid in nested-loop order, cell ``i`` under
        ``cell_ids()[i]``."""
        # The axes' cell fields are SweepCell's between cell_id and monitors.
        return [
            SweepCell(i, cid, *values, self.monitors)
            for i, (cid, values) in enumerate(zip(self.cell_ids(), product(*self._values())))
        ]

    def num_cells(self) -> int:
        """Grid size without expanding."""
        return prod(len(axis.given(self)) for axis in _AXES)

    def canonical(self) -> dict:
        """JSON-able canonical identity document of this grid.

        Every axis in its canonical form (fault plans as canonical labels,
        so ``"loss:0.020"`` and ``"loss:.02"`` hash alike), but not
        ``monitors``, which never change a row.  Parameter values are JSON
        scalars and sequences, so the document round-trips through ``json``.
        """
        doc = {"name": self.name}
        for axis, values in zip(_AXES, self._values()):
            forms = [axis.canonical(v) for v in values]
            doc[axis.field] = forms[0] if axis.scalar else forms
        return doc

    def spec_hash(self) -> str:
        """Content address of this grid: SHA-256 of :meth:`canonical`.

        Stable across processes, Python versions and axis *expression*
        (parameters are sorted at spec build time, fault plans are
        normalised to canonical labels), so one grid always lands in the
        same results-store entry.  The full 64-hex-char digest is the
        store key; displays may shorten it.
        """
        doc = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# cell instantiation
# ----------------------------------------------------------------------
def cell_seed(cell: SweepCell) -> int:
    """Deterministic per-cell seed, independent of execution order.

    The first ``integers(0, 2**31 - 1)`` of the stream
    :func:`repro.sim.rng.spawn_rng` spawns from the cell's master seed and
    its axis labels, so every worker process derives the identical value
    and distinct cells get independent streams.
    :func:`~repro.sim.rng.first_integer` replays that draw without numpy.
    """
    name = f"sweep/{cell.graph.label()}/{cell.tree}/{cell.schedule.label()}"
    return first_integer(cell.seed, name, 2**31 - 1)


def build_graph(spec: GraphSpec, seed: int) -> Graph:
    """Instantiate the graph of one cell (seeded families get ``seed``)."""
    kwargs = spec.kwargs()
    if spec.family in _SEEDED_GRAPHS:
        kwargs.setdefault("seed", seed)
    return GRAPH_BUILDERS[spec.family](**kwargs)


def build_tree(strategy: str, graph: Graph, seed: int, root: int = 0) -> SpanningTree:
    """Instantiate the spanning tree of one cell."""
    from repro.spanning import construct

    builder = getattr(construct, TREE_BUILDERS[strategy])
    if strategy == "random":
        return builder(graph, root, seed=seed)
    return builder(graph, root)


def build_schedule(spec: ScheduleSpec, num_nodes: int, seed: int):
    """Instantiate the request schedule of one cell.

    The per-node sizes (``per_node``, default 4, and ``rate_per_node``,
    default 0.5) are multiplied by ``num_nodes`` here, which is what lets
    one :class:`ScheduleSpec` scale across the whole graph axis.
    """
    p = spec.kwargs()
    count = int(p.get("per_node", 4)) * num_nodes
    rate = float(p.get("rate_per_node", 0.5)) * num_nodes
    if spec.family == "one_shot":
        return _schedules.one_shot(list(range(num_nodes)))
    if spec.family == "sequential":
        return _schedules.sequential(
            list(range(num_nodes)), gap=float(p.get("gap", 4.0 * num_nodes))
        )
    if spec.family == "poisson":
        return _schedules.poisson(num_nodes, count, rate, seed=seed)
    if spec.family == "bursty":
        return _schedules.bursty(
            num_nodes,
            bursts=int(p.get("bursts", 4)),
            burst_size=int(p.get("burst_size", max(1, count // 4))),
            burst_span=float(p.get("burst_span", 2.0)),
            idle_gap=float(p.get("idle_gap", 3.0 * num_nodes)),
            seed=seed,
        )
    if spec.family == "hotspot":
        return _schedules.hotspot(
            num_nodes,
            count,
            rate,
            hot_nodes=list(p.get("hot_nodes", (0,))),
            hot_fraction=float(p.get("hot_fraction", 0.8)),
            seed=seed,
        )
    if spec.family == "random":
        return _schedules.random_times(
            num_nodes,
            count,
            horizon=float(p.get("horizon", 2.0 * num_nodes)),
            seed=seed,
        )
    raise SweepError(
        f"{spec.family!r} is not an open-loop schedule family: its cell "
        "family generates its own request dynamics (the sweep executor "
        "runs these cells through its cell family, not build_schedule)"
    )


# ----------------------------------------------------------------------
# named grids (the presets of :data:`GRIDS`)
# ----------------------------------------------------------------------
def fig10_grid(
    sizes: tuple[int, ...] = (2, 4, 8, 16, 32, 48, 64, 76),
    *,
    requests_per_proc: int = 300,
    think_time: float = 0.1,
    seeds: tuple[int, ...] = (0,),
    engine: str = "fast",
    service_time: float = 0.1,
) -> SweepSpec:
    """Fig. 10-style closed-loop grid: arrow vs centralized per size.

    Each cell runs the §5 measurement loop — every processor re-issues
    ``think_time`` after its previous acknowledgement returns — on the
    simulated SP2 (complete unit-latency graph, balanced binary overlay,
    per-node service time).  Rows carry the latency histogram/percentile
    columns, so one sweep yields both the Fig. 10 separation and the
    tail-latency view the paper does not plot.  The defaults are the
    published sizes and 300 requests per processor.
    """
    return SweepSpec(
        name="fig10",
        graphs=tuple(GraphSpec.of("complete", n=n) for n in sizes),
        trees=("binary",),
        schedules=tuple(
            ScheduleSpec.of(family, requests_per_proc=requests_per_proc, think_time=think_time)
            for family in ("closed_arrow", "closed_centralized")
        ),
        seeds=tuple(seeds),
        engine=engine,
        service_time=service_time,
    )


def fig11_grid(
    sizes: tuple[int, ...] = (8, 16, 32, 64),
    *,
    per_node: int = 100,
    seeds: tuple[int, ...] = (0, 1, 2),
    engine: str = "fast",
    service_time: float = 0.1,
) -> SweepSpec:
    """Fig. 11-style grid: hops/op on complete graphs + binary overlays.

    Open-loop Poisson traffic at one request per node per time unit —
    the steady-state analogue of the paper's closed loop (which
    ``repro-arrow fig11`` tabulates from the :func:`fig10_grid` rows).
    The default ``service_time`` is the same SP2 model (0.1), so the two
    hop curves are directly comparable.
    """
    return SweepSpec(
        name="fig11",
        graphs=tuple(GraphSpec.of("complete", n=n) for n in sizes),
        trees=("binary",),
        schedules=(ScheduleSpec.of("poisson", per_node=per_node, rate_per_node=1.0),),
        seeds=tuple(seeds),
        engine=engine,
        service_time=service_time,
    )


def mixed_grid(
    *,
    seeds: tuple[int, ...] = (0, 1),
    engine: str = "fast",
) -> SweepSpec:
    """A cross-family grid exercising diverse shapes, trees and traffic."""
    return SweepSpec(
        name="mixed",
        graphs=(
            GraphSpec.of("complete", n=24),
            GraphSpec.of("grid", rows=5, cols=5),
            GraphSpec.of("hypercube", dim=5),
            GraphSpec.of("gnp", n=24, p=0.3),
        ),
        trees=("bfs", "mst", "random"),
        schedules=(
            ScheduleSpec.of("one_shot"),
            ScheduleSpec.of("poisson", per_node=20, rate_per_node=0.5),
            ScheduleSpec.of("hotspot", per_node=20, rate_per_node=0.5),
        ),
        seeds=tuple(seeds),
        engine=engine,
    )


def directory_grid(
    sizes: tuple[int, ...] = (2, 4, 8, 12, 16),
    *,
    acquisitions_per_proc: int = 50,
    seeds: tuple[int, ...] = (0,),
) -> SweepSpec:
    """§5.1 directory comparison as a sweep: arrow vs home-based per size.

    Each cell drives one directory design (``directory_arrow`` /
    ``directory_home``) under the closed acquire→use→release loop on the
    Herlihy-Warres testbed model (complete graph, balanced binary overlay
    for the arrow design, home at node 0, service time 0.1, critical
    section 0.5).  Rows record makespan, messages per acquisition and the
    mutual-exclusion invariant (``exclusion_ok``).  Each design has one
    version, on the flat event loops, so the grid has no engine choice:
    its spec records the default ``"fast"``.
    """
    return SweepSpec(
        name="directory",
        graphs=tuple(GraphSpec.of("complete", n=n) for n in sizes),
        trees=("binary",),
        schedules=tuple(
            ScheduleSpec.of(family, acquisitions_per_proc=acquisitions_per_proc, cs_time=0.5)
            for family in ("directory_arrow", "directory_home")
        ),
        seeds=tuple(seeds),
        service_time=0.1,
    )


def smoke_grid(
    *, seeds: tuple[int, ...] = (0, 1), engine: str = "fast"
) -> SweepSpec:
    """Tiny grid for CI smoke runs (4 cells at defaults, sub-second)."""
    return SweepSpec(
        name="smoke",
        graphs=(GraphSpec.of("complete", n=8), GraphSpec.of("path", n=9)),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("poisson", per_node=5, rate_per_node=0.5),),
        seeds=tuple(seeds),
        engine=engine,
    )


# ----------------------------------------------------------------------
# the theorem and ablation tables (``ratio`` / ``lowerbound`` families);
# a grid's name is the figure that tabulates it
# ----------------------------------------------------------------------
#: The graph and tree axes of every ``lowerbound`` cell: the Section 4
#: construction builds its own graph and tree, so these hold one fixed
#: placeholder and the schedule axis names the instance.
LOWERBOUND_AXES = (GraphSpec.of("path", n=1), "bfs")


def _paper_grid(name, graphs, schedules, trees=("bfs",), seed=0) -> SweepSpec:
    return SweepSpec(name, tuple(graphs), tuple(trees), tuple(schedules), (seed,))


def _lowerbound_grid(name, instances) -> SweepSpec:
    graph, tree = LOWERBOUND_AXES
    schedules = [ScheduleSpec.of("lowerbound", **params) for params in instances]
    return _paper_grid(name, [graph], schedules, (tree,))


def fig9_grid(D: int = 64, k: int = 4, variant: str = "layered") -> SweepSpec:
    """Fig. 9: one Section 4 instance of diameter ``D``."""
    return _lowerbound_grid("fig9", [{"D": D, "k": k, "variant": variant}])


def thm41_grid(diameters: tuple[int, ...] = (16, 64, 256, 1024)) -> SweepSpec:
    """Theorem 4.1: the literal and the layered instance per diameter."""
    instances = [{"D": D, "variant": v} for D in diameters for v in ("literal", "layered")]
    return _lowerbound_grid("thm41", instances)


def thm42_grid(stretches: tuple[int, ...] = (1, 2, 4, 8), *, D_over_s: int = 64) -> SweepSpec:
    """Theorem 4.2: shortcut instances of stretch ``s`` and diameter ``s D_over_s``."""
    instances = [{"D": s * D_over_s, "s": s, "variant": "stretch"} for s in stretches]
    return _lowerbound_grid("thm42", instances)


def _paths(diameters) -> list[GraphSpec]:
    return [GraphSpec.of("path", n=D + 1) for D in diameters]


def thm319_grid(
    diameters: tuple[int, ...] = (8, 16, 32, 64, 128), *, requests: int = 60, seed: int = 0
) -> SweepSpec:
    """Theorem 3.19: the ratio bracket on paths (stretch 1, so the diameter
    dependence is isolated) under the random workload."""
    workload = ScheduleSpec.of("ratio", count=requests)
    return _paper_grid("thm319", _paths(diameters), [workload], seed=seed)


def thm321_grid(
    diameters: tuple[int, ...] = (8, 16, 32, 64, 128), *, requests: int = 60, seed: int = 0
) -> SweepSpec:
    """Theorem 3.21: :func:`thm319_grid`'s schedules under delays uniform in
    ``[0.2, 1]``, each row beside its unit-delay cost."""
    workload = ScheduleSpec.of("ratio", count=requests, latency_lo=0.2)
    return _paper_grid("thm321", _paths(diameters), [workload], seed=seed)


def oneshot_grid() -> SweepSpec:
    """The one-shot case ([10]): 4 to 64 simultaneous requests on the MST of
    a 64-node random geometric graph."""
    counts = (4, 8, 16, 32, 64)
    workloads = [ScheduleSpec.of("ratio", schedule="one_shot", count=c) for c in counts]
    graph = GraphSpec.of("geometric", n=64, radius=0.25)
    return _paper_grid("oneshot", [graph], workloads, ("mst",))


def sequential_grid(*, requests: int = 40, seed: int = 0) -> SweepSpec:
    """The sequential regime ([4]): requests ``2D + 2`` apart on three
    topologies' MSTs, where an op costs <= D and the ratio is <= s."""
    graphs = [
        GraphSpec.of("complete", n=32),
        GraphSpec.of("grid", rows=6, cols=6),
        GraphSpec.of("geometric", n=40, radius=0.35),
    ]
    workload = ScheduleSpec.of("ratio", schedule="sequential", count=requests)
    return _paper_grid("sequential", graphs, [workload], ("mst",), seed)


def tree_ablation_grid(*, n: int = 48, requests: int = 150, seed: int = 0) -> SweepSpec:
    """§1.1 tree choice: one geometric graph and Poisson workload under the
    MST ([4]), the BFS tree and a random spanning tree."""
    workload = ScheduleSpec.of("ratio", schedule="poisson", count=requests, rate=3.0)
    graph = GraphSpec.of("geometric", n=n, radius=0.3)
    return _paper_grid("ablation-trees", [graph], [workload], ("mst", "bfs", "random"), seed)


def protocol_ablation_grid(*, n: int = 32, requests: int = 200, seed: int = 0) -> SweepSpec:
    """§1.1 protocols on K_n under one Poisson workload, on the binary and
    the star tree: arrow, NTA/Ivy pointers and §5's centralized protocol
    (these two ignore the tree; the figure reads them off the binary cells)."""
    workloads = [
        ScheduleSpec.of("ratio", schedule="poisson", count=requests, rate=4.0, protocol=p)
        for p in ("arrow", "adaptive", "centralized")
    ]
    graph = GraphSpec.of("complete", n=n)
    return _paper_grid("ablation-protocols", [graph], workloads, ("binary", "star"), seed)


def service_time_grids(
    *, n: int = 48, requests_per_proc: int = 150, service_times=(0.0, 0.05, 0.1, 0.2, 0.4)
) -> tuple[SweepSpec, ...]:
    """Fig. 10 against the per-message CPU cost: one single-size
    :func:`fig10_grid` per service time (think time = service time).  The
    service time applies to a whole grid, so this one table is several
    grids: the results store keeps each as its own run."""
    return tuple(
        replace(
            fig10_grid((n,), requests_per_proc=requests_per_proc, think_time=st, service_time=st),
            name="ablation-service-time",
        )
        for st in service_times
    )


#: Grid name -> its preset, the one list of named grids.  Each key is the
#: ``name`` of the spec its preset builds, which is also the figure that
#: tabulates it (:data:`repro.results.FIGURES`); ``sweep --grid``,
#: ``results ingest --grid`` and the paper commands look names up here
#: and pass their flags to the preset as keyword arguments.
#: :func:`service_time_grids` is not here: its one table is five grids.
GRIDS: dict[str, Callable[..., SweepSpec]] = {
    "smoke": smoke_grid,
    "mixed": mixed_grid,
    "fig10": fig10_grid,
    "fig11": fig11_grid,
    "directory": directory_grid,
    "fig9": fig9_grid,
    "oneshot": oneshot_grid,
    "thm319": thm319_grid,
    "thm321": thm321_grid,
    "thm41": thm41_grid,
    "thm42": thm42_grid,
    "sequential": sequential_grid,
    "ablation-trees": tree_ablation_grid,
    "ablation-protocols": protocol_ablation_grid,
}
