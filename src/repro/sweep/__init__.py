"""Declarative parameter sweeps over the arrow simulators.

The sweep subsystem turns parameter loops into data: a
:class:`~repro.sweep.spec.SweepSpec` declares a grid
(graph family × tree strategy × schedule family × seeds), the executor
expands it into cells with deterministic per-cell seeds, runs them —
optionally as one shard of a partitioned grid — and persists one JSONL
row per cell with resume-from-partial support.

What each schedule-axis name *means* is one table,
:data:`repro.sweep.families.FAMILIES`: a name maps to a
:class:`~repro.sweep.registry.CellFamily` — its parameters and their
kinds, a builder and a runner-to-row — for the open-loop arrow replays,
the §5 closed loops (``closed_arrow``/``closed_centralized``), the §5.1
directory designs (``directory_arrow``/``directory_home``) and the
theorem families (``ratio``, ``lowerbound``).  The table loads on the
first family lookup, not on import; every table the paper commands
print is a named grid here.  Rows from
the arrow families carry per-request latency percentile and histogram
columns
(:mod:`repro.sweep.stats`); directory rows persist the mutual-exclusion
invariant as ``exclusion_ok``.  Sharded runs are reassembled — with
completeness and row-shape verification, streaming one row at a time —
by :func:`~repro.sweep.persist.merge_shards`, and
:func:`~repro.sweep.orchestrator.orchestrate_sweep` drives a whole
sharded grid in one call: a supervised local worker pool with per-shard
progress, bounded retry of killed shards, and the automatic merge
(``repro-arrow sweep --workers k``) — the only way a sweep uses several
cores.
"""

from repro.sweep.executor import (
    execute_cell,
    iter_sweep,
    run_sweep,
    shard_path,
)
from repro.sweep.orchestrator import ShardState, orchestrate_sweep
from repro.sweep.persist import (
    completed_ids,
    diff_rows,
    dumps_row,
    iter_rows,
    merge_shards,
)
from repro.sweep.registry import CellFamily, get_family
from repro.sweep.spec import (
    GRAPH_BUILDERS,
    OPEN_LOOP_SCHEDULES,
    TREE_BUILDERS,
    GraphSpec,
    ScheduleSpec,
    SweepCell,
    SweepSpec,
    build_graph,
    build_schedule,
    build_tree,
    cell_seed,
    directory_grid,
    fig9_grid,
    fig10_grid,
    fig11_grid,
    mixed_grid,
    oneshot_grid,
    protocol_ablation_grid,
    sequential_grid,
    service_time_grids,
    smoke_grid,
    thm319_grid,
    thm321_grid,
    thm41_grid,
    thm42_grid,
    tree_ablation_grid,
)
from repro.sweep.stats import (
    DEFAULT_BINS,
    latency_columns,
    percentile_nearest_rank,
)

__all__ = [
    "GraphSpec",
    "ScheduleSpec",
    "SweepCell",
    "SweepSpec",
    "CellFamily",
    "get_family",
    "GRAPH_BUILDERS",
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
    "execute_cell",
    "iter_sweep",
    "run_sweep",
    "shard_path",
    "ShardState",
    "orchestrate_sweep",
    "completed_ids",
    "diff_rows",
    "dumps_row",
    "iter_rows",
    "merge_shards",
    "DEFAULT_BINS",
    "latency_columns",
    "percentile_nearest_rank",
]
