"""Sweep execution: cells → result rows, in one process.

The executor is deliberately deterministic: cells run in grid order, and
every row's content depends only on the cell's axes and master seed
(wall-clock timings never enter the persisted rows).  Several cores means
several shard processes, each running :func:`run_sweep` on its own file
under :func:`repro.sweep.orchestrator.orchestrate_sweep`; the merged file
is byte-identical to a one-process run.

What a cell *does* is not the executor's business: each schedule-axis
name resolves to a :class:`~repro.sweep.registry.CellFamily` (builder +
runner-to-row) in the one ``FAMILIES`` table of
:mod:`repro.sweep.families`, so the open-loop arrow replays, the §5
closed loops, the §5.1 directory designs and the theorem families all
execute through the same three lines of :func:`execute_cell`.
"""

from __future__ import annotations

import contextlib
import os
from importlib import import_module
from typing import Any, Iterable, Iterator

from repro.errors import MonitorViolation, ReproError, SweepError
from repro.fault_plan import parse_fault_plan
from repro.sweep import persist
from repro.sweep.registry import get_family
from repro.sweep.spec import SweepCell, SweepSpec, cell_seed

__all__ = [
    "execute_cell",
    "import_engines",
    "iter_sweep",
    "run_sweep",
    "shard_path",
]


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------
def _axis_columns(cell: SweepCell, derived: int) -> dict[str, Any]:
    """The identity columns every row carries, whatever its family."""
    return {
        "cell_id": cell.cell_id,
        "index": cell.index,
        "graph": cell.graph.label(),
        "tree": cell.tree,
        "schedule": cell.schedule.label(),
        "seed": cell.seed,
        "cell_seed": derived,
        "service_time": cell.service_time,
    }


def import_engines(spec: SweepSpec) -> None:
    """Import the modules the cells of ``spec`` run their engines from.

    A family imports its engine inside the function that runs a cell
    (:attr:`~repro.sweep.registry.CellFamily.engines` names the modules),
    plus the fault engine for a faulted cell and the monitors for a
    monitored one, and the tree builders :func:`~repro.sweep.spec.build_tree`
    imports on its first call.  :func:`run_sweep` imports them here once,
    before its first cell, and
    :func:`~repro.sweep.orchestrator.orchestrate_sweep` before it forks,
    so its shards inherit the compiled modules.
    """
    import_module("repro.spanning.construct")
    faulted = any(not parse_fault_plan(f).empty for f in spec.faults)
    for name in dict.fromkeys(s.family for s in spec.schedules):
        family = get_family(name)
        modules = list(family.engines)
        if faulted and family.supports_faults:
            modules.append("repro.faults")
        if spec.monitors and family.supports_monitors:
            modules.append("repro.monitors")
        for module in modules:
            import_module(module)


def execute_cell(cell: SweepCell) -> dict[str, Any]:
    """Instantiate and run one cell; return its persistable result row.

    The cell's schedule-axis family resolves to its registered
    :class:`~repro.sweep.registry.CellFamily`, whose builder and
    runner-to-row produce the metric columns; the executor prepends the
    axis identity columns.  Everything is a deterministic function of the
    cell, so rows are reproducible — and engine-independent: the fast and
    message engines are bit-identical (the §5.1 directories, which have
    one version each, ignore the engine axis entirely) and a row names
    no engine, so both engines write the same bytes.  A
    :class:`~repro.errors.ReproError` out of a cell's run carries the
    cell's id (``cell_id``, and at the head of the message); a
    :class:`~repro.errors.MonitorViolation` is re-raised as a new one,
    chained to the monitor's own.
    """
    family = get_family(cell.schedule.family)
    derived = cell_seed(cell)
    try:
        metrics = family.execute(cell, derived)
    except MonitorViolation as exc:
        raise MonitorViolation(
            f"cell {cell.cell_id}: {exc}",
            monitor=exc.monitor,
            at=exc.at,
            event=exc.event,
            cell_id=cell.cell_id,
        ) from exc
    except ReproError as exc:
        exc.cell_id = cell.cell_id
        exc.args = (f"cell {cell.cell_id}: {exc}",)
        raise
    return {**_axis_columns(cell, derived), **metrics}


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def shard_path(path: str, shard_index: int, shard_count: int) -> str:
    """Canonical per-shard output path derived from the merged path.

    ``sweep.jsonl`` with shard 0/2 becomes ``sweep.shard0-2.jsonl`` —
    the naming ``sweep-merge`` documentation assumes.
    """
    base, ext = os.path.splitext(path)
    return f"{base}.shard{shard_index}-{shard_count}{ext}"


def _check_shard(shard: tuple[int, int] | None) -> None:
    if shard is None:
        return
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise SweepError(
            f"shard must be i/m with 0 <= i < m, got {index}/{count}"
        )


@contextlib.contextmanager
def _exclusive_writer(path: str) -> Iterator[None]:
    """Fail loudly if another live process is sweeping into ``path``.

    Resume works because exactly one process owns a result file: two
    appenders interleave torn lines, and compaction races a concurrent
    append.  An ``flock`` on a ``<path>.lock`` sidecar (held for the whole
    run, including compaction) turns that misuse — e.g. two hosts given
    the same ``--shard`` index onto shared storage — into an immediate
    :class:`SweepError` instead of silent corruption.  On platforms
    without ``fcntl`` the guard is a no-op and single-writer discipline
    is the caller's contract.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        yield
        return
    fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise SweepError(
                f"{path} is being written by another sweep process "
                "(shard files must have exactly one writer; give each "
                "shard its own --shard index and output path)"
            ) from None
        yield
    finally:
        os.close(fd)


def iter_sweep(
    spec: SweepSpec,
    *,
    skip: Iterable[str] = (),
    shard: tuple[int, int] | None = None,
) -> Iterator[dict[str, Any]]:
    """Execute a spec's cells in grid order, yielding rows as they finish.

    ``shard=(i, m)`` keeps only cells with ``index % m == i`` — the
    round-robin partition ``sweep-merge`` reassembles into grid order.
    """
    _check_shard(shard)
    skip_set = set(skip)
    index, count = shard if shard is not None else (0, 1)
    for cell in spec.cells():
        if cell.index % count == index and cell.cell_id not in skip_set:
            yield execute_cell(cell)


def run_sweep(
    spec: SweepSpec,
    out_path: str,
    *,
    resume: bool = True,
    shard: tuple[int, int] | None = None,
) -> dict[str, Any]:
    """Run a sweep to a JSONL file; returns a small summary dict.

    With ``resume`` (the default) cells whose rows already exist in
    ``out_path`` are skipped and new rows are appended — a partially
    written trailing line from a killed run is dropped first and counted
    in the summary's ``torn_dropped``.  Without it the file is truncated
    and the whole grid re-runs.

    With ``shard=(i, m)`` only the cells of shard ``i`` run; each shard
    must write to its own file (see :func:`shard_path`), which a
    ``sweep-merge`` stitches back into the grid-order equivalent of an
    unsharded run.  A per-file lock enforces the one-writer-per-shard
    contract on POSIX systems.
    """
    _check_shard(shard)
    import_engines(spec)
    torn: list[str] = []
    with _exclusive_writer(out_path):
        if resume:
            done = persist.compact(out_path, skipped=torn)
        else:
            done = set()
            if os.path.exists(out_path):
                os.remove(out_path)
        written = 0
        with open(out_path, "a", encoding="utf-8") as fh:
            for row in iter_sweep(spec, skip=done, shard=shard):
                fh.write(persist.dumps_row(row) + "\n")
                fh.flush()
                written += 1
    total = spec.num_cells()
    if shard is not None:
        index, count = shard
        total = len(range(index, total, count))
    return {
        "spec": spec.name,
        "path": out_path,
        "cells": total,
        "written": written,
        "skipped": total - written,
        "torn_dropped": len(torn),
        "shard": None if shard is None else f"{shard[0]}/{shard[1]}",
    }
