"""Workload catalogue of the end-to-end benchmark.

A workload is a fixed sequence of user-visible steps — ``repro.cli.main``
invocations, or library calls where the CLI has no preset — generated
from ``(seed, scale)`` alone.  ``plan()`` returns the steps together
with the grids they produce, so the harness can verify the stored rows
and the traced pass can probe every cell without re-parsing argv.

The size constants below are frozen: they were tuned once so a timed
child takes 1.5–2 s on the 2-core reference box and several fit in one
``run_seconds`` window.  Changing them re-bases every recorded number.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Union

import repro.sweep
from repro.results import ResultsStore
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    directory_grid,
    fig10_grid,
    fig11_grid,
    mixed_grid,
    shard_path,
    smoke_grid,
)

__all__ = ["Grid", "Plan", "Workload", "WORKLOADS", "STORE", "shard_workers"]

#: Results-store directory every plan ingests into (relative to its workdir).
STORE = "store"

_PRESETS = {
    "fig10": fig10_grid,
    "fig11": fig11_grid,
    "mixed": mixed_grid,
    "directory": directory_grid,
    "smoke": smoke_grid,
}

#: A step is ``(label, argv)`` for ``repro.cli.main`` or ``(label, callable)``.
Step = tuple[str, Union[list[str], Callable[[], None]]]


@dataclass(frozen=True)
class Grid:
    """One grid a plan sweeps: its spec, where its raw rows land, and the
    CLI flags that rebuild the same spec (``None``: library-only grid)."""

    spec: SweepSpec
    out: str
    argv: tuple[str, ...] | None = None
    #: The timed steps execute this grid's cells (False: set-up did, the
    #: timed steps only read the rows back).
    swept: bool = True


@dataclass(frozen=True)
class Plan:
    steps: list[Step]
    grids: list[Grid]
    #: Shard child processes forked by orchestrated sweeps.
    shards: int = 0
    #: Untimed input generation into an inputs directory (set-up).
    prepare: Callable[[str], None] | None = None
    #: Rows the timed steps read back instead of produce (``rows_per_s``).
    rows_read: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: Callable[[int, float, str], Plan]
    #: Processes that compute at once (1 = single process); the harness
    #: gives the pipeline this many CPUs.
    workers: int = 1


def shard_workers() -> int:
    """Workers for the one multi-process workload: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


def _scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def _seeds(seed: int, count: int) -> tuple[int, ...]:
    return tuple(range(seed, seed + count))


def _flag_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _cli_grid(
    preset: str,
    out: str = "rows.jsonl",
    *,
    faults: tuple[str, ...] = (),
    monitors: bool = False,
    **options,
) -> Grid:
    """A CLI preset grid: the spec and the flags that rebuild it agree by
    construction (``results ingest`` rejects rows if they ever did not)."""
    spec = _PRESETS[preset](**options)
    if faults:
        spec = dataclasses.replace(spec, faults=faults)
    if monitors:
        spec = dataclasses.replace(spec, monitors=True)
    argv = ["--grid", preset]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", _flag_value(value)]
    for plan in faults:
        argv += ["--faults", plan]
    return Grid(spec, out, tuple(argv))


def _sweep_ingest_table(grid: Grid, *sweep_flags: str, tag: str = "") -> list[Step]:
    """The write-side pipeline every CLI grid runs: sweep → ingest → table."""
    assert grid.argv is not None
    if grid.spec.monitors:
        sweep_flags += ("--monitors",)
    return [
        (f"sweep{tag}", ["sweep", *grid.argv, *sweep_flags, "--out", grid.out]),
        (f"ingest{tag}",
         ["results", "ingest", grid.out, "--store", STORE, *grid.argv]),
        (f"table{tag}",
         ["results", "table", grid.spec.name, "--store", STORE,
          "--percentiles"]),
    ]


# ----------------------------------------------------------------------
# the seven workloads
# ----------------------------------------------------------------------
def _closed_fig10(seed: int, scale: float, inputs: str) -> Plan:
    grid = _cli_grid(
        "fig10",
        sizes=(8, 16, 32, 48, 64, 76),
        requests_per_proc=_scaled(400, scale),
        seeds=(seed,),
    )
    return Plan(_sweep_ingest_table(grid), [grid])


def _open_fig11(seed: int, scale: float, inputs: str) -> Plan:
    grid = _cli_grid(
        "fig11",
        sizes=(64, 128, 256),
        per_node=_scaled(60, scale),
        seeds=_seeds(seed, 8),
    )
    return Plan(_sweep_ingest_table(grid), [grid])


def _storm_oneshot(seed: int, scale: float, inputs: str) -> Plan:
    side = _scaled(120, scale ** 0.5)
    spec = SweepSpec(
        name="storm",
        graphs=(
            GraphSpec.of("binary_tree", n=_scaled(40000, scale)),
            GraphSpec.of("star", n=_scaled(25000, scale)),
            GraphSpec.of("grid", rows=side, cols=side),
            GraphSpec.of("path", n=_scaled(8000, scale)),
            GraphSpec.of("caterpillar", spine=_scaled(800, scale),
                         legs_per_node=10),
        ),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("one_shot"),),
        # one_shot draws no random number: the seed only labels the rows.
        seeds=(seed,),
    )
    grid = Grid(spec, "rows.jsonl")
    return Plan(
        [
            # Looked up at call time so the traced pass sees its wrapper.
            ("sweep", lambda: repro.sweep.run_sweep(spec, grid.out)),
            ("ingest", lambda: ResultsStore(STORE).ingest(spec, grid.out)),
        ],
        [grid],
    )


def _faults_monitored(seed: int, scale: float, inputs: str) -> Plan:
    grid = _cli_grid(
        "fig11",
        faults=("", "crash@20.0:1,loss:0.01"),
        monitors=True,
        sizes=(32, 64),
        per_node=_scaled(100, scale),
        seeds=_seeds(seed, 8),
    )
    return Plan(_sweep_ingest_table(grid), [grid])


def _sharded_small_cells(seed: int, scale: float, inputs: str) -> Plan:
    shards = 4
    grid = _cli_grid("mixed", seeds=_seeds(seed, _scaled(20, scale)))
    flags = ("--shards", str(shards), "--workers", str(shard_workers()),
             "--no-resume")
    return Plan(_sweep_ingest_table(grid, *flags), [grid], shards=shards)


def _message_oracle(seed: int, scale: float, inputs: str) -> Plan:
    directory = _cli_grid(
        "directory",
        "directory.jsonl",
        sizes=(4, 8, 16, 32),
        acquisitions_per_proc=_scaled(120, scale),
        seeds=(seed,),
    )
    fig10 = _cli_grid(
        "fig10",
        "fig10.jsonl",
        sizes=(8, 16, 32, 64),
        requests_per_proc=_scaled(120, scale),
        seeds=(seed,),
        engine="message",
    )
    return Plan(
        _sweep_ingest_table(directory, tag=".directory")
        + _sweep_ingest_table(fig10, tag=".fig10"),
        [directory, fig10],
    )


def _store_readback(seed: int, scale: float, inputs: str) -> Plan:
    shards = 4
    grid = dataclasses.replace(
        _cli_grid("smoke", "merged.jsonl",
                  seeds=_seeds(seed, _scaled(1400, scale))),
        swept=False,
    )
    cells = grid.spec.num_cells()
    merged = grid.out
    shard_files = [
        shard_path(os.path.join(inputs, "smoke.jsonl"), i, shards)
        for i in range(shards)
    ]
    reference = os.path.join(inputs, "reference.jsonl")

    def prepare(inputs_dir: str) -> None:
        """Write the shard files through the real writer, plus the
        round-robin interleave a correct merge must reproduce."""
        for i, path in enumerate(shard_files):
            repro.sweep.run_sweep(
                grid.spec, path, resume=False, shard=(i, shards)
            )
        handles = [open(path, "r", encoding="utf-8") for path in shard_files]
        try:
            with open(reference, "w", encoding="utf-8") as out:
                for k in range(cells):
                    out.write(handles[k % shards].readline())
        finally:
            for fh in handles:
                fh.close()

    assert grid.argv is not None
    ingest = ["results", "ingest", merged, "--store", STORE, *grid.argv]
    steps: list[Step] = [
        ("merge", ["sweep-merge", *shard_files, "--out", merged,
                   "--expect-cells", str(cells)]),
        ("verify", ["sweep-verify", "--a", merged, "--b", reference,
                    "--expect-cells", str(cells)]),
        ("ingest", ingest),
        ("reingest", ingest),
        ("table", ["results", "table", "smoke", "--store", STORE,
                   "--percentiles"]),
        ("plot", ["results", "plot", "smoke", "--store", STORE]),
        ("compare", ["results", "compare", "--store", STORE, "--a", "smoke",
                     "--b", merged, "--max-delta-pct", "0"]),
    ]
    return Plan(steps, [grid], prepare=prepare, rows_read=cells)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "closed_fig10",
            "the paper's headline closed loop (Fig. 10): the fast "
            "closed-loop engine is ~90% of cell time, so an engine change "
            "shows here and a build/persist change must not",
            _closed_fig10,
        ),
        Workload(
            "open_fig11",
            "open-loop Poisson through core.fast_arrow: schedule "
            "construction is a large share of cell time, so spec/schedule "
            "gains show here and not on closed_fig10",
            _open_fig11,
        ),
        Workload(
            "storm_oneshot",
            "one-shot storm on large trees via the library API: all "
            "requests at t=0, no RNG (seed only labels rows), heap- and "
            "memory-bound; half the time is graph/tree building",
            _storm_oneshot,
        ),
        Workload(
            "faults_monitored",
            "fault plans plus ArrowMonitor on every event: the only "
            "workload on the faulted loop and the monitor hooks, which "
            "every other workload bypasses",
            _faults_monitored,
        ),
        Workload(
            "sharded_small_cells",
            "many tiny cells over 4 orchestrated shards: interpreter "
            "starts, seeding, builders, per-row flush, polling and the "
            "streaming merge dominate; engine share is small",
            _sharded_small_cells,
            workers=shard_workers(),
        ),
        Workload(
            "message_oracle",
            "message-level kernel (directory grid and fig10 --engine "
            "message): guards the independent oracle, which no fast-engine "
            "change may slow",
            _message_oracle,
        ),
        Workload(
            "store_readback",
            "read side only: merge, verify, ingest, re-ingest, table, "
            "plot and compare over pre-generated shard files; no "
            "simulation, so engine changes must not move it",
            _store_readback,
        ),
    )
}
