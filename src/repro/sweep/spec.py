"""Sweep specifications: declarative grids and their expansion into cells.

A :class:`SweepSpec` is pure data — strings, numbers and tuples — so it
pickles cheaply across worker processes and round-trips through JSON.
Expansion order is part of the contract: cells are enumerated in the
nested-loop order ``graphs → trees → schedules → seeds`` with a stable
``cell_id`` per cell, so a sweep's JSONL output is byte-for-byte
reproducible regardless of how many workers execute it.

Per-cell randomness derives from :func:`repro.sim.rng.spawn_rng` keyed by
the cell's axes (not its position), so inserting a new axis value never
perturbs the draws of existing cells.  The theorem families (``ratio``,
``lowerbound``) draw from the cell's master seed instead, so cells that
differ only in tree or protocol replay one schedule.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, replace
from itertools import product
from math import prod

from repro.core.fast_arrow import ENGINES, engine_error_message
from repro.errors import SweepError, require_time
from repro.faults import parse_fault_plan
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
from repro.sim.rng import spawn_rng
from repro.sweep.registry import (
    count,
    duration,
    fraction,
    get_family,
    nodes,
    non_negative_int,
    positive_real,
)
from repro.spanning.construct import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
    star_overlay,
)
from repro.spanning.tree import SpanningTree
from repro.workloads import schedules as _schedules

__all__ = [
    "GraphSpec",
    "ScheduleSpec",
    "SweepCell",
    "SweepSpec",
    "GRAPH_BUILDERS",
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

#: Tree strategy name -> constructor from :mod:`repro.spanning.construct`.
TREE_BUILDERS = {
    "bfs": bfs_tree,
    "mst": mst_prim,
    "binary": balanced_binary_overlay,
    "star": star_overlay,
    "random": random_spanning_tree,
}

#: Open-loop schedule family names, with the parameters each accepts and
#: their kinds.  These all share one cell family behaviour (the open-loop
#: arrow runner, :mod:`repro.sweep.families`); :func:`build_schedule`
#: instantiates the actual :class:`~repro.core.requests.RequestSchedule`.
#: Absolute ``count`` / ``rate`` win over the relative ``per_node`` /
#: ``rate_per_node``.
_SIZE = {"count": count, "per_node": count}
_RATE = {"rate": positive_real, "rate_per_node": positive_real}
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


def _param_key(params: tuple[tuple[str, object], ...]) -> str:
    return ",".join(f"{k}={v}" for k, v in params)


@dataclass(frozen=True, slots=True)
class GraphSpec:
    """One point on the graph-family axis: family name + generator kwargs."""

    family: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, family: str, **params: object) -> "GraphSpec":
        """Build a spec from keyword generator arguments.

        Parameter names are checked against the generator's signature
        here, so a typo fails at spec-build time with a named error
        rather than as a raw ``TypeError`` inside a worker mid-sweep.
        """
        if family not in GRAPH_BUILDERS:
            raise SweepError(
                f"unknown graph family {family!r}; know {sorted(GRAPH_BUILDERS)}"
            )
        accepted = set(inspect.signature(GRAPH_BUILDERS[family]).parameters)
        unknown = set(params) - accepted
        if unknown:
            raise SweepError(
                f"graph family {family!r} does not accept {sorted(unknown)}; "
                f"known parameters: {sorted(accepted)}"
            )
        return cls(family, tuple(sorted(params.items())))

    def kwargs(self) -> dict[str, object]:
        """Generator keyword arguments as a dict."""
        return dict(self.params)

    def label(self) -> str:
        """Stable human-readable id component, e.g. ``complete(n=16)``."""
        return f"{self.family}({_param_key(self.params)})"


@dataclass(frozen=True, slots=True)
class ScheduleSpec:
    """One point on the schedule-family axis: family name + parameters.

    The ``poisson``, ``hotspot`` and ``random`` families accept relative
    sizes — ``per_node`` (requests per node) and ``rate_per_node`` — so
    one spec scales across the graph axis; absolute ``count``/``rate``
    are honoured when given.
    """

    family: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, family: str, **params: object) -> "ScheduleSpec":
        """Build a spec from keyword schedule parameters.

        The family name, the parameter names and each value's kind are
        checked against the cell family of that name
        (:data:`repro.sweep.families.FAMILIES`), so unknown names, typo'd
        keys and bad values (``count=0``, ``count=7.9``...) all fail at
        spec-build time instead of inside a worker mid-sweep.
        """
        get_family(family).validate_params(params)
        return cls(family, tuple(sorted(params.items())))

    def kwargs(self) -> dict[str, object]:
        """Schedule parameters as a dict."""
        return dict(self.params)

    def label(self) -> str:
        """Stable human-readable id component."""
        return f"{self.family}({_param_key(self.params)})"


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
    #: :func:`repro.faults.parse_fault_plan`).
    faults: str = ""
    #: Attach runtime protocol monitors to this cell's run.  Monitors
    #: never change the row — they only raise on invariant violations —
    #: so the flag is not part of the cell identity.
    monitors: bool = False


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A declarative sweep grid.

    ``cells()`` expands the four axes in nested-loop order; the engine
    and service time apply to every cell.
    """

    name: str
    graphs: tuple[GraphSpec, ...]
    trees: tuple[str, ...]
    schedules: tuple[ScheduleSpec, ...]
    seeds: tuple[int, ...]
    engine: str = "fast"
    service_time: float = 0.0
    #: Fault-plan axis (see :func:`repro.faults.parse_fault_plan`); the
    #: default single empty plan keeps the grid fault-free and its cell
    #: ids/rows byte-identical to pre-fault-axis sweeps.
    faults: tuple[str, ...] = ("",)
    #: Attach runtime protocol monitors to every cell (open-loop and
    #: ``closed_arrow`` families).  Output rows are unchanged; an
    #: invariant violation aborts the sweep with
    #: :class:`repro.errors.MonitorViolation`.
    monitors: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise SweepError(engine_error_message(self.engine))
        # Checked, not converted: the value as given is part of spec_hash.
        require_time("service_time", self.service_time, SweepError)
        for t in self.trees:
            if t not in TREE_BUILDERS:
                raise SweepError(
                    f"unknown tree strategy {t!r}; know {sorted(TREE_BUILDERS)}"
                )
        if not self.faults:
            raise SweepError(
                "faults axis must not be empty; use ('',) for a "
                "fault-free grid"
            )
        # Parse errors (FaultPlanError) are SweepErrors already.
        plans = [parse_fault_plan(f) for f in self.faults]
        # A repeated axis value would give two cells one cell id.
        for axis, keys in (
            ("graphs", [g.label() for g in self.graphs]),
            ("trees", self.trees),
            ("schedules", [s.label() for s in self.schedules]),
            ("seeds", self.seeds),
            ("faults", [p.label() for p in plans]),
        ):
            seen: set = set()
            for key in keys:
                if key in seen:
                    raise SweepError(f"{axis} axis repeats {key!r}: every cell id must be distinct")
                seen.add(key)
        for f, plan in zip(self.faults, plans):
            if not plan.empty:
                for s in self.schedules:
                    if not get_family(s.family).supports_faults:
                        raise SweepError(
                            f"cell family {s.family!r} does not support the "
                            f"fault axis (plan {f!r}); faults apply to the "
                            "open-loop arrow families only"
                        )

    def cells(self) -> list[SweepCell]:
        """Expand the grid: graphs → trees → schedules → seeds → faults.

        The cell id carries every axis that can change the metrics —
        including a non-default service time and a non-empty fault plan
        (as ``/f[<canonical label>]``), so resuming a re-parametrised
        sweep into an old file recomputes rather than silently keeping
        stale rows.  The engine is deliberately *not* part of the identity
        (the engines are bit-identical, so rows are interchangeable)
        and neither is ``monitors`` (monitors never change a row).
        """
        st = f"/st{self.service_time}" if self.service_time else ""
        fault_labels = [parse_fault_plan(f).label() for f in self.faults]
        axes = product(self.graphs, self.trees, self.schedules, self.seeds, fault_labels)
        return [
            SweepCell(
                index=i,
                cell_id=f"{g.label()}/{t}/{s.label()}/s{seed}{st}" + (f"/f[{fl}]" if fl else ""),
                graph=g,
                tree=t,
                schedule=s,
                seed=seed,
                engine=self.engine,
                service_time=self.service_time,
                faults=fl,
                monitors=self.monitors,
            )
            for i, (g, t, s, seed, fl) in enumerate(axes)
        ]

    def num_cells(self) -> int:
        """Grid size without expanding."""
        return prod(map(len, (self.graphs, self.trees, self.schedules, self.seeds, self.faults)))

    def canonical(self) -> dict:
        """JSON-able canonical identity document of this grid.

        Carries every knob that can change a persisted row: the four
        axes, the seeds, the engine and service time, and the fault axis
        (as canonical plan labels, so ``"loss:0.020"`` and ``"loss:.02"``
        hash alike).  ``monitors`` is deliberately excluded — monitors
        never change a row, so a monitored re-run of a grid is the same
        content.  Axis parameter values are restricted to JSON scalars
        and sequences, so the document round-trips through ``json``
        losslessly.
        """
        return {
            "name": self.name,
            "graphs": [
                {"family": g.family, "params": [[k, v] for k, v in g.params]}
                for g in self.graphs
            ],
            "trees": list(self.trees),
            "schedules": [
                {"family": s.family, "params": [[k, v] for k, v in s.params]}
                for s in self.schedules
            ],
            "seeds": list(self.seeds),
            "engine": self.engine,
            "service_time": self.service_time,
            "faults": [parse_fault_plan(f).label() for f in self.faults],
        }

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

    Spawned from the cell's master seed and its axis labels via
    :func:`repro.sim.rng.spawn_rng`, so every worker process derives the
    identical value and distinct cells get independent streams.
    """
    name = f"sweep/{cell.graph.label()}/{cell.tree}/{cell.schedule.label()}"
    return int(spawn_rng(cell.seed, name).integers(0, 2**31 - 1))


def build_graph(spec: GraphSpec, seed: int) -> Graph:
    """Instantiate the graph of one cell (seeded families get ``seed``)."""
    kwargs = spec.kwargs()
    if spec.family in _SEEDED_GRAPHS:
        kwargs.setdefault("seed", seed)
    return GRAPH_BUILDERS[spec.family](**kwargs)


def build_tree(strategy: str, graph: Graph, seed: int, root: int = 0) -> SpanningTree:
    """Instantiate the spanning tree of one cell."""
    if strategy == "random":
        return random_spanning_tree(graph, root, seed=seed)
    return TREE_BUILDERS[strategy](graph, root)


def build_schedule(spec: ScheduleSpec, num_nodes: int, seed: int):
    """Instantiate the request schedule of one cell.

    Relative parameters (``per_node``, ``rate_per_node``) are resolved
    against ``num_nodes`` here, which is what lets one
    :class:`ScheduleSpec` scale across the whole graph axis.
    """
    if spec.family not in OPEN_LOOP_SCHEDULES:
        raise SweepError(
            f"{spec.family!r} is not an open-loop schedule family: its cell "
            "family generates its own request dynamics (the sweep executor "
            "runs these cells through its cell family, not build_schedule)"
        )
    p = spec.kwargs()
    # Explicit absolute sizes win over the per-node defaults, but a
    # non-positive explicit value is an error — silently rerouting
    # ``count=0`` to the per-node default would run a different workload
    # than the one the cell id claims.
    if "count" in p:
        count = int(p.pop("count"))
        if count <= 0:
            raise SweepError(
                f"{spec.family!r}: count must be positive, got {count} "
                "(omit count to size the schedule per node)"
            )
    else:
        count = int(p.pop("per_node", 4)) * num_nodes
    p.pop("per_node", None)
    if "rate" in p:
        rate = float(p.pop("rate"))
        if rate <= 0:
            raise SweepError(
                f"{spec.family!r}: rate must be positive, got {rate} "
                "(omit rate to scale it per node)"
            )
    else:
        rate = float(p.pop("rate_per_node", 0.5)) * num_nodes
    p.pop("rate_per_node", None)
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
        hot = list(p.get("hot_nodes", (0,)))
        return _schedules.hotspot(
            num_nodes,
            count,
            rate,
            hot_nodes=hot,
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
    raise SweepError(f"unknown schedule family {spec.family!r}")


# ----------------------------------------------------------------------
# named grids (CLI presets)
# ----------------------------------------------------------------------
def fig10_grid(
    sizes: tuple[int, ...] = (8, 16, 32, 48, 64, 76),
    *,
    requests_per_proc: int = 100,
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
    tail-latency view the paper does not plot.
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
    cs_time: float = 0.5,
    seeds: tuple[int, ...] = (0,),
    engine: str = "fast",
    service_time: float = 0.1,
) -> SweepSpec:
    """§5.1 directory comparison as a sweep: arrow vs home-based per size.

    Each cell drives one directory design (``directory_arrow`` /
    ``directory_home``) under the closed acquire→use→release loop on the
    Herlihy-Warres testbed model (complete graph, balanced binary overlay
    for the arrow design, home at node 0).  Rows record makespan,
    messages per acquisition and the mutual-exclusion invariant
    (``exclusion_ok``) — both designs run at full message level, so the
    ``engine`` axis only affects any open-loop cells mixed into the grid.
    """
    return SweepSpec(
        name="directory",
        graphs=tuple(GraphSpec.of("complete", n=n) for n in sizes),
        trees=("binary",),
        schedules=tuple(
            ScheduleSpec.of(family, acquisitions_per_proc=acquisitions_per_proc, cs_time=cs_time)
            for family in ("directory_arrow", "directory_home")
        ),
        seeds=tuple(seeds),
        engine=engine,
        service_time=service_time,
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
