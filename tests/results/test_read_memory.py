"""The read commands stream: peak memory grows by a bounded amount per row.

Each command runs through ``repro.cli.main`` (``compact`` as a library
call, since only a resumed sweep runs it) on an N-row and an 8N-row smoke
run, and the ``tracemalloc`` peak of the larger run may exceed the
smaller one's by at most a few hundred bytes per extra row.  A command
that lists its decoded rows, or keeps a map from line text to row, holds
several KB per row.  An ingest keeps each cell's line text (about 560 B
for a smoke row) and its index, so its bound is looser; ``sweep-merge``,
``sweep-verify`` and ``compact`` streamed before this test was written.
"""

from __future__ import annotations

import gc
import shutil
import tracemalloc

import pytest

from repro.cli import main
from repro.sweep import run_sweep, smoke_grid
from repro.sweep.persist import compact

N = 200  # rows of the smaller run; the larger holds 8N
PER_ROW = {"ingest": 1024, "reingest": 1024}  # bytes per extra row
DEFAULT_PER_ROW = 256


def steps(run: str, cells: int) -> list[tuple[str, object]]:
    """The read commands over one run's files, in an order each can rely on."""
    grid = ["--grid", "smoke", "--seeds", ",".join(map(str, range(cells // 2)))]
    store = ["--store", f"{run}/store"]
    ingest = ["results", "ingest", f"{run}/merged.jsonl", *store, *grid]
    return [
        ("merge", ["sweep-merge", f"{run}/s0.jsonl", f"{run}/s1.jsonl",
                   "--out", f"{run}/merged.jsonl", "--expect-cells", str(cells)]),
        ("verify", ["sweep-verify", "--a", f"{run}/merged.jsonl",
                    "--b", f"{run}/smoke.jsonl", "--expect-cells", str(cells)]),
        ("ingest", ingest),
        ("reingest", ingest),
        ("table", ["results", "table", "smoke", *store, "--percentiles"]),
        ("plot", ["results", "plot", "smoke", *store]),
        ("compare", ["results", "compare", *store, "--a", "smoke",
                     "--b", f"{run}/merged.jsonl", "--max-delta-pct", "0"]),
        ("compact", lambda: len(compact(f"{run}/torn.jsonl")) != cells),
    ]


def make_run(root, cells: int) -> str:
    """A smoke sweep of ``cells`` rows, its two round-robin shard files and
    a copy with a torn tail (so ``compact`` rewrites it)."""
    run = root / f"run{cells}"
    run.mkdir()
    run_sweep(smoke_grid(seeds=tuple(range(cells // 2))), str(run / "smoke.jsonl"))
    lines = (run / "smoke.jsonl").read_text().splitlines(keepends=True)
    for residue in (0, 1):
        (run / f"s{residue}.jsonl").write_text("".join(lines[residue::2]))
    (run / "torn.jsonl").write_text("".join(lines) + lines[0][:40])
    return str(run)


def peak(step) -> int:
    """Peak bytes ``tracemalloc`` sees while ``step`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        assert (step() if callable(step) else main(step)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def growth(tmp_path_factory):
    """Per command: peak bytes of the 8N-row run minus the N-row run's,
    per extra row.  A warm-up pass first loads what the commands import."""
    root = tmp_path_factory.mktemp("read-memory")
    warm, small, large = (make_run(root, n) for n in (4, N, 8 * N))
    for _, step in steps(warm, 4):
        peak(step)
    peaks = {}
    for run, cells in ((small, N), (large, 8 * N)):
        for name, step in steps(run, cells):
            peaks.setdefault(name, []).append(peak(step))
    shutil.rmtree(root)
    return {name: (hi - lo) / (7 * N) for name, (lo, hi) in peaks.items()}


@pytest.mark.parametrize(
    "command",
    ["merge", "verify", "ingest", "reingest", "table", "plot", "compare", "compact"],
)
def test_peak_memory_grows_by_a_bounded_amount_per_row(growth, command, capsys):
    capsys.readouterr()  # the commands' tables
    bound = PER_ROW.get(command, DEFAULT_PER_ROW)
    assert growth[command] < bound, (
        f"{command}: peak grows {growth[command]:.0f} B per row (bound {bound})"
    )
