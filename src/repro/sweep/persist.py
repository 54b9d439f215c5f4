"""JSONL persistence for sweep results: one line format, one reader.

One JSON object per line, serialised canonically (sorted keys, compact
separators) so a sweep with a fixed seed produces byte-identical files
regardless of worker count.  Files are append-only during a run.  Every
consumer reads through :func:`_decode` under one of two policies:

* **resume** (:func:`iter_rows`, :func:`compact`) — for a file a run may
  still be appending to: a torn final line is dropped and counted, any
  other damage raises :class:`ReproError` naming ``path:line``;
* **verify** (:func:`iter_verified_rows`, behind :func:`diff_rows`,
  :func:`merge_shards` and the results store's own files) — for a
  finished file: every damaged line is a ``path:line`` problem and every
  row is held to the persisted invariants (:func:`verify_rows`).
"""

from __future__ import annotations

import heapq
import json
import os
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.sweep.stats import DEFAULT_BINS

__all__ = [
    "dumps_row",
    "iter_rows",
    "completed_ids",
    "compact",
    "verify_rows",
    "iter_verified_rows",
    "diff_rows",
    "merge_shards",
]


def dumps_row(row: dict[str, Any]) -> str:
    """Canonical one-line serialisation of a result row (no newline)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


#: How a non-blank line fails to be a row: not JSON (perhaps a write cut
#: short), or a complete JSON value that is not an object (never one).
_NOT_JSON = "corrupt JSONL row"
_NOT_OBJECT = "not a JSON object; not a sweep row"


def _decode(lines: Iterable[str]) -> Iterator[tuple[int, dict[str, Any] | None, str | None]]:
    """The one reader: ``(lineno, row, damage)`` per non-blank line.

    A line is what iterating a text stream yields: ``\n``, ``\r`` and
    ``\r\n`` end one; ``\x0b``, ``\x0c``, ``\x1c``, ``\x85`` and ``\u2028``
    do not.  One of ``row`` and ``damage`` is ``None``; what damage
    *means* is the caller's policy.
    """
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = json.loads(stripped)
        except json.JSONDecodeError:
            yield lineno, None, _NOT_JSON
            continue
        if isinstance(row, dict):
            yield lineno, row, None
        else:
            yield lineno, None, _NOT_OBJECT


def _resume(
    lines: Iterable[str], path: str, skipped: list[str] | None
) -> Iterator[dict[str, Any]]:
    """*Resume* policy, for a file a run may still be appending to.

    A non-JSON *final* line is tolerated (partial write of an interrupted
    run); one followed by more data indicates real damage and raises
    :class:`ReproError` — as does a line that parses to anything but a
    JSON object, wherever it stands (a complete line is no torn write).
    A dropped line is never silent: ``skipped`` (if given) receives one
    ``"path:lineno: ..."`` entry for it, which resume and ingest report.
    """
    torn: int | None = None  # only an error if any non-blank line follows
    for lineno, row, damage in _decode(lines):
        if torn is not None:
            raise ReproError(f"{path}:{torn}: {_NOT_JSON} mid-file")
        if row is not None:
            yield row
        elif damage == _NOT_OBJECT:
            raise ReproError(f"{path}:{lineno}: {damage}")
        else:
            torn = lineno
    if torn is not None and skipped is not None:
        skipped.append(
            f"{path}:{torn}: torn trailing line dropped (interrupted run)"
        )


def iter_rows(
    path: str, *, skipped: list[str] | None = None
) -> Iterator[dict[str, Any]]:
    """Yield the rows of a JSONL file under the *resume* policy (:func:`_resume`)."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _resume(fh, path, skipped)


def _row_shape_problems(row: dict[str, Any]) -> list[str]:
    """Structural invariants every executor row must satisfy.

    The latency histogram's bin counts must cover exactly the cell's
    *completed* requests — every issued request minus the ones a fault
    plan lost (``requests_lost``, absent on fault-free rows) — and the
    executor always emits ``DEFAULT_BINS`` buckets, so a violated
    invariant means a truncated or hand-edited file — worth failing a
    verification over even when both inputs agree.  Directory rows
    persist the §5.1 mutual-exclusion invariant as ``exclusion_ok``; a
    ``false`` there is a protocol violation, never a valid measurement.
    """
    problems = []
    hist = row.get("latency_hist")
    if hist is not None:
        if len(hist) != DEFAULT_BINS:
            problems.append(
                f"latency_hist has {len(hist)} bins, expected {DEFAULT_BINS}"
            )
        elif "requests" in row:
            completed = row["requests"] - row.get("requests_lost", 0)
            if sum(hist) != completed:
                problems.append(
                    f"latency_hist counts {sum(hist)} completed "
                    f"requests, row says {completed}"
                )
    if row.get("exclusion_ok") is False:
        problems.append(
            "exclusion_ok is false — mutual exclusion violated "
            f"in cell {row.get('cell_id')}"
        )
    return problems


def verify_rows(
    rows: Iterable[dict[str, Any]], label: str, report: Callable[[str], None]
) -> Iterator[dict[str, Any]]:
    """Pass ``rows`` through; row ``k``'s broken persisted invariants are
    reported, as ``"<label> row <k>: ..."``, before it is yielded."""
    for k, row in enumerate(rows):
        for problem in _row_shape_problems(row):
            report(f"{label} row {k}: {problem}")
        yield row


def iter_verified_rows(path: str, report: Callable[[str], None]) -> Iterator[dict[str, Any]]:
    """Yield the rows of a finished JSONL file under the *verify* policy.

    Nothing is tolerated: ANY damaged line — including the torn tail a
    killed run leaves — is reported as ``path:line: ...``, and every row
    goes through :func:`verify_rows`.  The file verifies iff nothing was
    reported by the time the iterator is exhausted.
    """

    def undamaged(lines: Iterable[str]) -> Iterator[dict[str, Any]]:
        for lineno, row, damage in _decode(lines):
            if row is None:
                report(f"{path}:{lineno}: {damage}")
            else:
                yield row

    with open(path, "r", encoding="utf-8") as fh:
        yield from verify_rows(undamaged(fh), path, report)


def diff_rows(
    path_a: str,
    path_b: str,
    *,
    ignore: tuple[str, ...] = ("engine",),
    expect_cells: int | None = None,
) -> tuple[int, list[str]]:
    """Compare two sweep JSONL files row by row; return (rows, problems).

    The engines' bit-identity contract means two sweeps of one grid must
    serialise to equal rows modulo the ``ignore`` columns (by default just
    the ``engine`` label itself).  Beyond equality, both files are read
    under the *verify* policy (:func:`iter_verified_rows`: row invariants
    checked, and the torn trailing line resume reads tolerate is a
    problem), and, when ``expect_cells`` is given, the files must carry
    exactly that many rows.  An empty problem list means the files verify.
    """
    problems: list[str] = []
    rows_a = list(iter_verified_rows(path_a, problems.append))
    rows_b = list(iter_verified_rows(path_b, problems.append))
    if expect_cells is not None and len(rows_a) != expect_cells:
        problems.append(
            f"{path_a}: expected {expect_cells} rows, found {len(rows_a)}"
        )
    if len(rows_a) != len(rows_b):
        problems.append(
            f"row count differs: {path_a} has {len(rows_a)}, "
            f"{path_b} has {len(rows_b)}"
        )
    for k, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        fa = {key: v for key, v in ra.items() if key not in ignore}
        fb = {key: v for key, v in rb.items() if key not in ignore}
        if fa != fb:
            cell = ra.get("cell_id", f"row {k}")
            bad = sorted(
                key
                for key in fa.keys() | fb.keys()
                if fa.get(key) != fb.get(key)
            )
            problems.append(f"row {k} ({cell}): columns differ: {', '.join(bad)}")
    return len(rows_a), problems


def completed_ids(path: str) -> set[str]:
    """Cell ids already recorded in a (possibly partial) result file."""
    if not os.path.exists(path):
        return set()
    return {row["cell_id"] for row in iter_rows(path) if "cell_id" in row}


def compact(path: str, *, skipped: list[str] | None = None) -> set[str]:
    """Drop a truncated trailing line in place; return the completed ids
    (*resume* policy; ``skipped`` as in :func:`_resume`).

    The file is read **once** and the parsed rows are compared against
    that same snapshot, then rewritten only when needed (atomic replace),
    so resuming after a kill leaves a clean append point.  The
    read-compare-rewrite is still not atomic with respect to a concurrent
    appender — a row appended between the read and the replace would be
    lost — so a result file must have exactly one writer at a time;
    :func:`repro.sweep.executor.run_sweep` enforces that with a per-file
    lock held across both this compaction and its own appends (the rule
    matters doubly for sharded sweeps, where each shard file belongs to
    exactly one shard index).
    """
    if not os.path.exists(path):
        return set()
    # newline="": a ``\r`` line ending reads back as written, so a file
    # carrying one is not mistaken for its canonical self.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    rows = list(_resume(lines, path, skipped))
    text = "".join(dumps_row(r) + "\n" for r in rows)
    if "".join(lines) != text:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    return {row["cell_id"] for row in rows if "cell_id" in row}


#: Per-shard-file cap on recorded problem strings: keeps a wholly
#: damaged shard of a million-cell grid from buffering millions of
#: messages — the constant-memory contract must hold on the reject path
#: too.  The suppression notice still says how much was elided.
_PROBLEMS_PER_FILE_CAP = 50


def _shard_rows(
    path: str, shard_count: int, problems: list[str], residues: set[int]
) -> Iterator[dict[str, Any]]:
    """One shard file's merge-eligible rows, verified, in file order.

    On top of the verify policy, a row without an integer ``index`` is a
    problem and is skipped, an index that does not increase is a problem,
    and ``residues`` collects the indices modulo ``shard_count``.
    Problems are capped per file, with a count of what was elided.
    """
    recorded = 0

    def report(message: str) -> None:
        nonlocal recorded
        if recorded < _PROBLEMS_PER_FILE_CAP:
            problems.append(message)
        recorded += 1

    last_index: int | None = None
    for k, row in enumerate(iter_verified_rows(path, report)):
        index = row.get("index")
        if not isinstance(index, int):
            report(
                f"{path} row {k}: no integer 'index' column; "
                "not a sweep shard row"
            )
            continue
        residues.add(index % shard_count)
        if last_index is not None and index <= last_index:
            report(
                f"{path} row {k}: index {index} out of order after "
                f"{last_index}; shard files are append-only in "
                "grid order (re-run the shard)"
            )
        last_index = index
        yield row
    if recorded > _PROBLEMS_PER_FILE_CAP:
        problems.append(
            f"{path}: {recorded - _PROBLEMS_PER_FILE_CAP} further problem(s) "
            f"suppressed (first {_PROBLEMS_PER_FILE_CAP} shown)"
        )


def _format_capped(values: list[int], dropped: int) -> str:
    """Render a capped problem-index list, noting how many were elided."""
    return f"{values}" + (f" (+{dropped} more)" if dropped else "")


#: How many offending cell indices a merge problem names before eliding —
#: keeps error messages (and the memory behind them) bounded even when a
#: whole shard of a million-cell grid is missing or duplicated.
_PROBLEM_INDEX_CAP = 10


def merge_shards(
    shard_paths: Iterable[str],
    out_path: str,
    *,
    expect_cells: int | None = None,
) -> tuple[int, list[str]]:
    """Merge sharded sweep files back into grid order; return (rows, problems).

    The shards of one grid partition its cells round-robin by index, so
    their union must be exactly the contiguous index range ``0..N-1``
    with no duplicates, and each file's indices must share one residue
    modulo the shard count (mixing files from different shardings fails
    here); each file is read under the *verify* policy, so a broken row
    invariant or a corrupt line — a killed shard's torn tail — is a problem.

    The merge **streams**: shard files are k-way merged through one read
    cursor each (rows verified and written one at a time), so peak
    memory is independent of grid size — a million-cell merge holds one
    row per shard, never a shard's full row list.  Because ``run_sweep``
    appends rows in grid order, each shard file must be internally
    ordered by index; a file that is not (only possible by hand-editing
    holes into it) is rejected.

    One gap is undetectable from row content alone: a shard that lost
    only *trailing* cells, when no surviving row carries a higher index,
    looks like a complete merge of a smaller grid.  Pass ``expect_cells``
    (= ``SweepSpec.num_cells()``; the CLI's ``--expect-cells``) to close
    it — without that the merge certifies internal consistency, not grid
    completeness.

    Only a clean merge is kept (written atomically) at ``out_path``;
    rows stream into a ``.tmp`` sidecar that is discarded when any
    problem surfaces.  Because rows are serialised canonically and
    emitted in index order, the merged file is byte-identical to an
    unsharded run of the same grid.
    """
    shard_paths = list(shard_paths)
    shard_count = len(shard_paths)
    problems: list[str] = []
    residues: list[tuple[str, set[int]]] = []
    streams = []
    for path in shard_paths:
        if not os.path.exists(path):
            problems.append(f"{path}: missing shard file")
            continue
        found: set[int] = set()
        residues.append((path, found))
        streams.append(_shard_rows(path, shard_count, problems, found))
    total_rows = 0
    expected = 0
    dup_shown: list[int] = []
    dup_dropped = 0
    missing_shown: list[int] = []
    missing_dropped = 0
    tmp = out_path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            # A stable k-way merge: equal indices (duplicates) come out in
            # shard order, and one row per shard is in memory.
            for row in heapq.merge(*streams, key=itemgetter("index")):
                index = row["index"]
                if index == expected:
                    expected = index + 1
                elif index < expected:
                    if dup_shown and dup_shown[-1] == index:
                        pass  # already recorded this duplicated index
                    elif len(dup_shown) < _PROBLEM_INDEX_CAP:
                        dup_shown.append(index)
                    else:
                        dup_dropped += 1
                else:
                    gap = range(expected, index)
                    take = max(0, _PROBLEM_INDEX_CAP - len(missing_shown))
                    missing_shown.extend(gap[:take])
                    missing_dropped += len(gap) - min(take, len(gap))
                    expected = index + 1
                out.write(dumps_row(row) + "\n")
                total_rows += 1
        # Round-robin partition: every file's indices share one residue
        # modulo the shard count, and non-empty files cover distinct
        # residues.  Catches files from a different sharding mixed in even
        # when the union happens to be contiguous.
        seen_residues: dict[int, str] = {}
        for path, found in residues:
            if len(found) > 1:
                problems.append(
                    f"{path}: cell indices span residues "
                    f"{sorted(found)} modulo {shard_count} shards; "
                    "not one shard of this grid"
                )
            for residue in sorted(found):
                if residue in seen_residues:
                    problems.append(
                        f"{path}: same shard residue {residue} as "
                        f"{seen_residues[residue]} (shard passed twice?)"
                    )
                else:
                    seen_residues[residue] = path
        if expect_cells is not None and total_rows != expect_cells:
            problems.append(
                f"merge: expected {expect_cells} rows across shards, "
                f"found {total_rows}"
            )
        if dup_shown or dup_dropped:
            problems.append(
                "merge: duplicate cell indices across shards: "
                f"{_format_capped(dup_shown, dup_dropped)} "
                "(same shard run twice into different files?)"
            )
        if missing_shown or missing_dropped:
            problems.append(
                "merge: missing cell indices "
                f"{_format_capped(missing_shown, missing_dropped)} "
                "(a shard is absent or incomplete)"
            )
        if not problems:
            os.replace(tmp, out_path)
    finally:
        for stream in streams:
            stream.close()
        # Rejected, or a reader or the output failed mid-stream (ENOSPC,
        # I/O error): no partial .tmp sidecar stays behind.
        if os.path.exists(tmp):
            os.remove(tmp)
    return total_rows, problems
