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
first family lookup, not on import.  Every single-grid table the paper
commands print is a named grid, one entry of
:data:`~repro.sweep.spec.GRIDS`.  Rows from the arrow families carry
per-request latency percentile and histogram columns
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

from repro import _lazy_attributes

__all__ = [
    "GRIDS",
    "OPEN_LOOP_SCHEDULES",
    "GraphSpec",
    "ScheduleSpec",
    "SweepSpec",
    "build_graph",
    "build_schedule",
    "build_tree",
    "cell_seed",
    "directory_grid",
    "dumps_row",
    "execute_cell",
    "fig10_grid",
    "fig11_grid",
    "get_family",
    "iter_sweep",
    "latency_columns",
    "mixed_grid",
    "orchestrate_sweep",
    "run_sweep",
    "service_time_grids",
    "shard_path",
    "smoke_grid",
]

#: Each public name -> its defining module, imported on first access: the
#: results store reads rows through :mod:`repro.sweep.persist` and
#: :mod:`repro.sweep.spec` without compiling the executor or orchestrator.
_LAZY = {
    "execute_cell": "repro.sweep.executor",
    "iter_sweep": "repro.sweep.executor",
    "run_sweep": "repro.sweep.executor",
    "shard_path": "repro.sweep.executor",
    "orchestrate_sweep": "repro.sweep.orchestrator",
    "dumps_row": "repro.sweep.persist",
    "get_family": "repro.sweep.registry",
    "GRIDS": "repro.sweep.spec",
    "OPEN_LOOP_SCHEDULES": "repro.sweep.spec",
    "GraphSpec": "repro.sweep.spec",
    "ScheduleSpec": "repro.sweep.spec",
    "SweepSpec": "repro.sweep.spec",
    "build_graph": "repro.sweep.spec",
    "build_schedule": "repro.sweep.spec",
    "build_tree": "repro.sweep.spec",
    "cell_seed": "repro.sweep.spec",
    "directory_grid": "repro.sweep.spec",
    "fig10_grid": "repro.sweep.spec",
    "fig11_grid": "repro.sweep.spec",
    "mixed_grid": "repro.sweep.spec",
    "service_time_grids": "repro.sweep.spec",
    "smoke_grid": "repro.sweep.spec",
    "latency_columns": "repro.sweep.stats",
}
__getattr__ = _lazy_attributes(__name__, _LAZY)
