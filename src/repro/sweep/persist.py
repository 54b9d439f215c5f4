"""JSONL persistence for sweep results.

One JSON object per line, serialised canonically (sorted keys, compact
separators) so a sweep with a fixed seed produces byte-identical files
regardless of worker count.  Files are append-only during a run; resume
reads the valid prefix back and skips completed cells.  A truncated
trailing line — the signature of a killed run — is dropped on load.
"""

from __future__ import annotations

import heapq
import json
import os
from typing import Any, Iterable, Iterator

from repro.errors import ReproError

__all__ = [
    "dumps_row",
    "iter_rows",
    "completed_ids",
    "compact",
    "diff_rows",
    "merge_shards",
]


def dumps_row(row: dict[str, Any]) -> str:
    """Canonical one-line serialisation of a result row (no newline)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def _lenient_rows(
    lines: Iterable[str],
    path: str,
    *,
    skipped: list[str] | None = None,
) -> Iterator[dict[str, Any]]:
    """Resume-oriented row parse shared by :func:`iter_rows`/:func:`compact`.

    A corrupt *final* line is tolerated (partial write of an interrupted
    run); a corrupt line followed by more data indicates real damage and
    raises :class:`ReproError` — as does a line that parses to anything
    but a JSON object, wherever it stands (a complete line is no torn
    write).  A dropped line is never silent: pass a
    ``skipped`` list to receive one ``"path:lineno: ..."`` entry per
    damaged line that was tolerated, so resume/ingest callers can report
    "N damaged line(s) skipped" instead of quietly shrinking the file.
    """
    torn: int | None = None  # line number of an unparseable line
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        if torn is not None:
            raise ReproError(f"{path}:{torn}: corrupt JSONL row mid-file")
        try:
            row = json.loads(stripped)
        except json.JSONDecodeError:
            torn = lineno  # only an error if any non-empty line follows
            continue
        if not isinstance(row, dict):
            raise ReproError(
                f"{path}:{lineno}: not a JSON object; not a sweep row"
            )
        yield row
    if torn is not None and skipped is not None:
        skipped.append(
            f"{path}:{torn}: torn trailing line dropped (interrupted run)"
        )


def iter_rows(
    path: str, *, skipped: list[str] | None = None
) -> Iterator[dict[str, Any]]:
    """Yield the valid rows of a JSONL file (lenient about a torn tail).

    ``skipped`` (if given) collects a description of every damaged line
    the lenient parse dropped — see :func:`_lenient_rows`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        yield from _lenient_rows(fh, path, skipped=skipped)


def _row_shape_problems(row: dict[str, Any], label: str) -> list[str]:
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
    from repro.sweep.stats import DEFAULT_BINS

    problems = []
    hist = row.get("latency_hist")
    if hist is not None:
        if len(hist) != DEFAULT_BINS:
            problems.append(
                f"{label}: latency_hist has {len(hist)} bins, "
                f"expected {DEFAULT_BINS}"
            )
        elif "requests" in row:
            completed = row["requests"] - row.get("requests_lost", 0)
            if sum(hist) != completed:
                problems.append(
                    f"{label}: latency_hist counts {sum(hist)} completed "
                    f"requests, row says {completed}"
                )
    if row.get("exclusion_ok") is False:
        problems.append(
            f"{label}: exclusion_ok is false — mutual exclusion violated "
            f"in cell {row.get('cell_id')}"
        )
    return problems


def _strict_parse_line(
    stripped: str, path: str, lineno: int, problems: list[str]
) -> dict[str, Any] | None:
    """Verification-grade parse of one non-blank JSONL line.

    Returns the row dict, or ``None`` after recording *why* the line is
    not a sweep row.  Shared by the buffering (:func:`_strict_rows`) and
    streaming (:class:`_ShardReader`) verification readers so the
    line-level rejection rules — and their messages — cannot diverge.
    """
    try:
        row = json.loads(stripped)
    except json.JSONDecodeError:
        problems.append(f"{path}:{lineno}: corrupt JSONL row")
        return None
    if not isinstance(row, dict):
        problems.append(f"{path}:{lineno}: not a JSON object; not a sweep row")
        return None
    return row


def _strict_rows(path: str, problems: list[str]) -> list[dict[str, Any]]:
    """Load every row of ``path``, reporting ANY corrupt line as a problem.

    Unlike :func:`iter_rows` — whose resume-oriented leniency drops a
    torn trailing line — a *verification* read must flag it: a torn tail
    is exactly the damage ``diff_rows`` exists to catch.
    """
    rows: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                continue
            row = _strict_parse_line(stripped, path, lineno, problems)
            if row is not None:
                rows.append(row)
    return rows


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
    the ``engine`` label itself).  Beyond equality, every row is checked
    against the executor's structural invariants
    (:func:`_row_shape_problems`), corrupt lines — including the torn
    trailing line a killed run leaves, which resume-mode reads tolerate —
    are problems, and, when ``expect_cells`` is given, the files must
    carry exactly that many rows.  An empty problem list means the files
    verify.
    """
    problems: list[str] = []
    rows_a = _strict_rows(path_a, problems)
    rows_b = _strict_rows(path_b, problems)
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
    for path, rows in ((path_a, rows_a), (path_b, rows_b)):
        for k, row in enumerate(rows):
            problems.extend(
                _row_shape_problems(row, f"{path} row {k}")
            )
    return len(rows_a), problems


def completed_ids(path: str) -> set[str]:
    """Cell ids already recorded in a (possibly partial) result file."""
    if not os.path.exists(path):
        return set()
    return {row["cell_id"] for row in iter_rows(path) if "cell_id" in row}


def compact(path: str, *, skipped: list[str] | None = None) -> set[str]:
    """Drop a truncated trailing line in place; return the completed ids.

    ``skipped`` (if given) records the dropped line, as in
    :func:`iter_rows`.

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
    with open(path, "r", encoding="utf-8") as fh:
        current = fh.read()
    rows = list(_lenient_rows(current.splitlines(), path, skipped=skipped))
    text = "".join(dumps_row(r) + "\n" for r in rows)
    if current != text:
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


class _ShardReader:
    """Sequential one-row cursor over a shard JSONL file.

    The streaming merge holds exactly one of these per shard: one open
    file handle, one parsed row at a time, plus O(shard-count) residue
    bookkeeping — never a shard's full row list.  Damaged lines (corrupt
    JSON, non-objects, rows without an integer ``index``) are recorded
    as problems (capped per file, with a count of what was elided) and
    skipped so the cursor keeps advancing and the file's damage gets
    characterised without buffering it.
    """

    def __init__(self, path: str, shard_count: int, problems: list[str]):
        self.path = path
        self._shard_count = shard_count
        self._problems = problems
        self._recorded = 0
        self._suppressed = 0
        self._fh = open(path, "r", encoding="utf-8")
        self._lineno = 0
        self._rowno = 0
        self.last_index: int | None = None
        self.residues: set[int] = set()

    def _problem(self, message: str) -> None:
        if self._recorded < _PROBLEMS_PER_FILE_CAP:
            self._problems.append(message)
            self._recorded += 1
        else:
            self._suppressed += 1

    def next_row(self) -> dict[str, Any] | None:
        """Advance to the next merge-eligible row (``None`` = exhausted)."""
        while True:
            line = self._fh.readline()
            if not line:
                return None
            self._lineno += 1
            stripped = line.strip()
            if not stripped:
                continue
            scratch: list[str] = []
            row = _strict_parse_line(stripped, self.path, self._lineno, scratch)
            if row is None:
                for message in scratch:
                    self._problem(message)
                continue
            label = f"{self.path} row {self._rowno}"
            self._rowno += 1
            for message in _row_shape_problems(row, label):
                self._problem(message)
            index = row.get("index")
            if not isinstance(index, int):
                self._problem(
                    f"{label}: no integer 'index' column; "
                    "not a sweep shard row"
                )
                continue
            self.residues.add(index % self._shard_count)
            if self.last_index is not None and index <= self.last_index:
                self._problem(
                    f"{label}: index {index} out of order after "
                    f"{self.last_index}; shard files are append-only in "
                    "grid order (re-run the shard)"
                )
            self.last_index = index
            return row

    def close(self) -> None:
        if self._suppressed:
            self._problems.append(
                f"{self.path}: {self._suppressed} further problem(s) "
                f"suppressed (first {_PROBLEMS_PER_FILE_CAP} shown)"
            )
            self._suppressed = 0
        self._fh.close()


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
    here); every row must satisfy the executor's structural invariants
    (:func:`_row_shape_problems`), and corrupt lines — including the torn
    tail a killed shard leaves — are problems.

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
    readers: list[_ShardReader | None] = []
    total_rows = 0
    expected = 0
    dup_shown: list[int] = []
    dup_dropped = 0
    missing_shown: list[int] = []
    missing_dropped = 0
    tmp = out_path + ".tmp"
    try:
        for path in shard_paths:
            if not os.path.exists(path):
                problems.append(f"{path}: missing shard file")
                readers.append(None)
                continue
            readers.append(_ShardReader(path, shard_count, problems))
        # Prime the k-way merge with each shard's head row; ties on
        # equal indices (duplicates) break by reader position so the
        # heap never compares row dicts.
        heap: list[tuple[int, int, dict[str, Any]]] = []
        for pos, reader in enumerate(readers):
            if reader is None:
                continue
            row = reader.next_row()
            if row is not None:
                heapq.heappush(heap, (row["index"], pos, row))
        with open(tmp, "w", encoding="utf-8") as out:
            while heap:
                index, pos, row = heapq.heappop(heap)
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
                reader = readers[pos]
                assert reader is not None
                nxt = reader.next_row()
                if nxt is not None:
                    heapq.heappush(heap, (nxt["index"], pos, nxt))
    except BaseException:
        # A reader or the output failed mid-stream (ENOSPC, I/O error):
        # don't leave a partial .tmp sidecar behind the exception.
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    finally:
        for reader in readers:
            if reader is not None:
                reader.close()

    # Round-robin partition: every file's indices share one residue
    # modulo the shard count, and non-empty files cover distinct
    # residues.  Catches files from a different sharding mixed in even
    # when the union happens to be contiguous.
    seen_residues: dict[int, str] = {}
    for reader in readers:
        if reader is None:
            continue
        if len(reader.residues) > 1:
            problems.append(
                f"{reader.path}: cell indices span residues "
                f"{sorted(reader.residues)} modulo {shard_count} shards; "
                "not one shard of this grid"
            )
        for residue in sorted(reader.residues):
            if residue in seen_residues:
                problems.append(
                    f"{reader.path}: same shard residue {residue} as "
                    f"{seen_residues[residue]} (shard passed twice?)"
                )
            else:
                seen_residues[residue] = reader.path
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
    if problems:
        if os.path.exists(tmp):
            os.remove(tmp)
        return total_rows, problems
    os.replace(tmp, out_path)
    return total_rows, problems
