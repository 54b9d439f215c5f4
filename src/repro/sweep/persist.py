"""JSONL persistence for sweep results: one line format, one reader.

One JSON object per line, serialised canonically (sorted keys, compact
separators) so a sweep with a fixed seed produces byte-identical files
regardless of worker count or engine (a row names no engine).  Files are
append-only during a run.  Every consumer reads through :func:`_decode`
under one of two policies:

* **resume** (:func:`iter_rows`, :func:`compact`) — for a file a run may
  still be appending to: a torn final line is dropped and counted, any
  other damage raises :class:`ReproError` naming ``path:line``;
* **verify** (:func:`iter_verified_rows`, behind :func:`diff_rows` and
  the results store's own files) — for a finished file: every damaged
  line is a ``path:line`` problem and every row is held to the persisted
  invariants (:func:`verify_rows`).  :func:`merge_shards` interleaves
  shard files under it — row ``k`` must carry index ``k`` — and stops
  at the first problem.  It is a verified interleave that copies line
  text: a line is parsed to be checked, and its stripped text, not a
  re-encoding of the row, is what the merged file holds.

Rows are ASCII (the encoder escapes the rest), so a line holding a byte
that is not UTF-8 is damage on that line, under either policy, like a
line that is not JSON.

Every reader streams: a command holds the row it is on, never the file.
A command need not parse a row text twice, either.  Rows are canonical,
so two lines with equal stripped text are equal rows: the readers take an
optional ``known`` map from stripped text to row, and a line found there
is that row — no second parse — while every row still passes the
policy's checks under its own file and row number.  A *verify* read
replaces the map's one entry with each row it parses, so two files read
in lockstep through one map (:func:`diff_rows`, ``results compare``)
parse an equal pair once and hold one row between them; *resume* reads
only look the map up (the results store's ingest passes its stored line
texts, so a source line already stored is not parsed).  A line not in
the map (another formatting, another value) is parsed and compared as a
parsed row.
"""

from __future__ import annotations

import contextlib
import json
import os
from itertools import chain, zip_longest
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.sweep.stats import DEFAULT_BINS

__all__ = [
    "dumps_row",
    "iter_rows",
    "compact",
    "verify_rows",
    "iter_verified_rows",
    "diff_rows",
    "differing_columns",
    "merge_shards",
]


#: The one canonical encoder: ``json.dumps`` with these options would
#: build a new encoder on every row.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_row(row: dict[str, Any]) -> str:
    """Canonical one-line serialisation of a result row (no newline)."""
    return _ENCODER.encode(row)


#: The one decoder.  For a stripped line ``raw_decode`` is ``json.loads``
#: without its two whitespace scans; what it leaves unread is extra data.
_DECODER = json.JSONDecoder()


#: How a non-blank line fails to be a row: not JSON (perhaps a write cut
#: short), or a complete JSON value that is not an object (never one).
_NOT_JSON = "corrupt JSONL row"
_NOT_OBJECT = "not a JSON object; not a sweep row"
_NOT_UTF8 = "corrupt JSONL row (not UTF-8)"


#: Stripped line text -> the row a line of that text is (:func:`_decode`).
Known = dict[str, dict[str, Any]]


def _open(path: str, **kwargs: Any):
    """A row file as text.  A byte that is not UTF-8 reads as a lone
    surrogate, which :func:`_decode` reports as damage on its line."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape", **kwargs)


def _utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate :func:`_open` decoded a bad byte to
        return False
    return True


def _decode(
    lines: Iterable[str], known: Known | None = None, learn: bool = False
) -> Iterator[tuple[int, str, dict[str, Any] | None, str | None]]:
    """The one reader: ``(lineno, text, row, damage)`` per non-blank line.

    A line is what iterating a text stream yields: ``\n``, ``\r`` and
    ``\r\n`` end one; ``\x0b``, ``\x0c``, ``\x1c``, ``\x85`` and ``\u2028``
    do not.  ``text`` is the line stripped.  One of ``row`` and ``damage``
    is ``None``; what damage *means* is the caller's policy.  With
    ``known``, a line whose stripped text is a key yields that row without
    a parse (the *same* object); with ``learn`` too, every row parsed
    becomes the map's one entry, under its text.  A line that is not
    ASCII is checked for UTF-8 before it is parsed.
    """
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        if known is not None and (row := known.get(stripped)) is not None:
            yield lineno, stripped, row, None
            continue
        if not stripped.isascii() and not _utf8(stripped):
            yield lineno, stripped, None, _NOT_UTF8
            continue
        try:
            row, end = _DECODER.raw_decode(stripped)
        except json.JSONDecodeError:
            end = None
        if end != len(stripped):
            yield lineno, stripped, None, _NOT_JSON
            continue
        if isinstance(row, dict):
            if learn:
                known.clear()
                known[stripped] = row
            yield lineno, stripped, row, None
        else:
            yield lineno, stripped, None, _NOT_OBJECT


def _resume(
    lines: Iterable[str],
    path: str,
    skipped: list[str] | None,
    known: Known | None = None,
) -> Iterator[dict[str, Any]]:
    """*Resume* policy, for a file a run may still be appending to.

    A non-JSON or non-UTF-8 *final* line is tolerated (partial write of an
    interrupted run); one followed by more data indicates real damage and raises
    :class:`ReproError` — as does a line that parses to anything but a
    JSON object, wherever it stands (a complete line is no torn write).
    A dropped line is never silent: ``skipped`` (if given) receives one
    ``"path:lineno: ..."`` entry for it, which resume and ingest report.
    """
    torn: tuple[int, str] | None = None  # an error if a non-blank line follows
    for lineno, _, row, damage in _decode(lines, known):
        if torn is not None:
            raise ReproError(f"{path}:{torn[0]}: {torn[1]} mid-file")
        if row is not None:
            yield row
        elif damage == _NOT_OBJECT:
            raise ReproError(f"{path}:{lineno}: {damage}")
        else:
            torn = lineno, damage
    if torn is not None and skipped is not None:
        skipped.append(
            f"{path}:{torn[0]}: torn trailing line dropped (interrupted run)"
        )


def iter_rows(
    path: str, *, skipped: list[str] | None = None, known: Known | None = None
) -> Iterator[dict[str, Any]]:
    """Yield the rows of a JSONL file under the *resume* policy
    (:func:`_resume`).  ``known`` (:func:`_decode`) is only looked up, so
    the rows a source file adds are not kept alive by it."""
    with _open(path) as fh:
        yield from _resume(fh, path, skipped, known)


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


def iter_verified_lines(
    path: str, report: Callable[[str], None], *, known: Known | None = None
) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``(stripped text, row)`` per row of a finished JSONL file,
    under the *verify* policy.

    Nothing is tolerated: ANY damaged line — including the torn tail a
    killed run leaves — is reported as ``path:line: ...``, and row ``k``'s
    broken persisted invariants as ``path row k: ...``, as
    :func:`verify_rows` reports them, a ``known`` row (:func:`_decode`)
    too; each row parsed becomes ``known``'s one entry.  The file
    verifies iff nothing was reported by the time the iterator is
    exhausted.
    """

    def undamaged(lines: Iterable[str]) -> Iterator[tuple[str, dict[str, Any]]]:
        for lineno, text, row, damage in _decode(lines, known, learn=known is not None):
            if row is None:
                report(f"{path}:{lineno}: {damage}")
            else:
                yield text, row

    with _open(path) as fh:
        for k, (text, row) in enumerate(undamaged(fh)):
            for problem in _row_shape_problems(row):
                report(f"{path} row {k}: {problem}")
            yield text, row


def iter_verified_rows(
    path: str, report: Callable[[str], None], *, known: Known | None = None
) -> Iterator[dict[str, Any]]:
    """The rows of :func:`iter_verified_lines`."""
    return (row for _, row in iter_verified_lines(path, report, known=known))


def differing_columns(a: dict[str, Any], b: dict[str, Any]) -> str:
    """The columns two rows disagree on, sorted and comma-joined; a column
    one row lacks counts as differing."""
    return ", ".join(sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key)))


def diff_rows(
    path_a: str,
    path_b: str,
    *,
    expect_cells: int | None = None,
) -> tuple[int, list[str]]:
    """Compare two sweep JSONL files row by row; return (rows, problems).

    The engines' bit-identity contract means two sweeps of one grid must
    serialise to equal rows, every column included (a row names no
    engine, so a fast and a message sweep write the same bytes).  Beyond
    equality, both files are read under the *verify* policy
    (:func:`iter_verified_rows`: row invariants checked, and the torn
    trailing line resume reads tolerate is a problem), and, when
    ``expect_cells`` is given, the files must carry exactly that many
    rows.  An empty problem list means the files verify.

    The files are walked in lockstep, one row of each in memory, so peak
    memory does not grow with file size.  A pair of equal lines is parsed
    once (the two sides share a one-entry ``known`` map, which holds the
    row parsed last) and is one row, so it needs no column walk.
    """
    problems: list[str] = []
    count_a = count_b = 0
    pair: Known = {}
    pairs = zip_longest(
        iter_verified_rows(path_a, problems.append, known=pair),
        iter_verified_rows(path_b, problems.append, known=pair),
    )
    for k, (ra, rb) in enumerate(pairs):
        count_a += ra is not None
        count_b += rb is not None
        if ra is None or rb is None or ra is rb or ra == rb:
            continue
        cell = ra.get("cell_id", f"row {k}")
        problems.append(f"row {k} ({cell}): columns differ: {differing_columns(ra, rb)}")
    if expect_cells is not None and count_a != expect_cells:
        problems.append(f"{path_a}: expected {expect_cells} rows, found {count_a}")
    if count_a != count_b:
        problems.append(f"row count differs: {path_a} has {count_a}, {path_b} has {count_b}")
    return count_a, problems


def compact(path: str, *, skipped: list[str] | None = None) -> set[str]:
    """Drop a truncated trailing line in place; return the completed ids
    (*resume* policy; ``skipped`` as in :func:`_resume`).

    One pass reads the file and writes its canonical copy, a row at a
    time, to a ``.tmp`` sidecar that replaces the file only when a byte
    differs (atomic replace), so resuming after a kill leaves a clean
    append point; only the id set grows with the file.  The
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
    done: set[str] = set()
    tmp = path + ".tmp"
    read = written = 0  # characters
    same = True  # every row's line so far is its canonical line
    line = ""

    def tapped(lines: Iterable[str]) -> Iterator[str]:
        nonlocal line, read
        for line in lines:
            read += len(line)
            yield line

    try:
        # newline="": a ``\r`` line ending reads back as written, so a file
        # carrying one is not mistaken for its canonical self.
        with _open(path, newline="") as fh, open(tmp, "w", encoding="utf-8") as out:
            for row in _resume(tapped(fh), path, skipped):
                canonical = dumps_row(row) + "\n"
                same = same and canonical == line  # the line just read
                written += len(canonical)
                out.write(canonical)
                if "cell_id" in row:
                    done.add(row["cell_id"])
        if not same or read != written:  # a line rewritten, blank or dropped
            os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return done


class _Refused(Exception):
    """A merge's first problem, as ``path:line: reason``."""


_Rows = Iterator[tuple[str, int, str]]  # (path:line, index, stripped text)


def _indexed_rows(path: str, lines: Iterable[str]) -> _Rows:
    """A finished shard file's rows under the *verify* policy, as their
    stripped text; the first damaged line, broken row invariant or row
    without an integer ``index`` raises :class:`_Refused` naming its line."""
    for lineno, text, row, damage in _decode(lines):
        problems = [damage] if row is None else _row_shape_problems(row)
        # Not ``isinstance``: JSON's ``true`` is a bool, and a bool an int.
        if not problems and type(index := row.get("index")) is not int:
            problems = [f"no integer 'index' column (found {index!r})"]
        if problems:
            raise _Refused(f"{path}:{lineno}: {problems[0]}")
        yield f"{path}:{lineno}", index, text


def merge_shards(
    shard_paths: Iterable[str],
    out_path: str,
    *,
    expect_cells: int | None = None,
) -> tuple[int, list[str]]:
    """Interleave sharded sweep files into grid order; return (rows, problems).

    The ``m`` shards of a grid split it round-robin and each is appended
    in grid order, so row ``p`` of the file with residue ``r`` carries
    index ``r + p*m``.  A file's residue is its first row's index mod
    ``m`` (any file order; an empty file is a shard with no cells), and
    merged row ``k`` is the next row of the file with residue ``k mod m``.
    One row per file is in memory, whatever the grid size.

    The walk stops at its first problem and reports that one, naming its
    ``path:line``: a damaged line or broken row invariant (the *verify*
    policy), a residue claimed twice, a row whose index is not ``k``, or
    a row left once index ``k`` is in no file.  A shard that lost only
    *trailing* cells still looks like a smaller grid; ``expect_cells``
    (= ``SweepSpec.num_cells()``, the CLI's ``--expect-cells``) closes that.

    Rows stream into a ``.tmp`` sidecar, renamed to ``out_path`` on a
    clean merge and removed otherwise.  The merge copies each verified
    line's stripped text, in index order, and encodes no row: shard files
    are written canonically (and :func:`compact` re-canonicalises one on
    resume), so the merged file is byte-identical to an unsharded run.  A
    hand-reformatted line is carried through as given; every consumer
    parses it, and a results-store ingest still stores canonical text.
    """
    paths = list(shard_paths)
    m = len(paths)
    tmp = out_path + ".tmp"
    k = 0  # the index due next, = rows written
    try:
        with contextlib.ExitStack() as files:
            if not paths:
                raise _Refused("merge: no shard files given")
            shards: dict[int, tuple[str, _Rows]] = {}  # residue -> (path, rows)
            for path in paths:
                if not os.path.exists(path):
                    raise _Refused(f"{path}: missing shard file")
                rows = _indexed_rows(path, files.enter_context(_open(path)))
                if (first := next(rows, None)) is not None:
                    where, index, _ = first
                    if (r := index % m) in shards:
                        raise _Refused(f"{where}: index {index} is residue {r} of {m}, "
                                       f"as in {shards[r][0]} (a shard passed twice?)")
                    shards[r] = (path, chain([first], rows))
            out = files.enter_context(open(tmp, "w", encoding="utf-8"))
            while (shard := shards.get(k % m)) and (entry := next(shard[1], None)):
                where, index, text = entry
                if index != k:
                    raise _Refused(f"{where}: index {index} out of order, expected {k} "
                                   "(a row missing, duplicated or moved, or another sharding)")
                if k == expect_cells:
                    raise _Refused(f"{where}: expected {expect_cells} rows, found more")
                out.write(text + "\n")
                k += 1
            # Index k is in no file, so no file may hold another row.
            for _, rows in shards.values():
                if (left := next(rows, None)) is not None:
                    raise _Refused(f"{left[0]}: index {left[1]} out of order, "
                                   f"but no shard holds index {k} (a shard missing or short)")
            if expect_cells is not None and k != expect_cells:
                where = shards[k % m][0] if k % m in shards else "merge"
                raise _Refused(f"{where}: expected {expect_cells} rows across shards, "
                               f"found {k}; index {k} is missing")
        os.replace(tmp, out_path)
    except _Refused as problem:
        return k, [str(problem)]
    finally:
        # Rejected, or a reader or the output failed mid-stream (ENOSPC,
        # I/O error): no partial .tmp sidecar stays behind.
        if os.path.exists(tmp):
            os.remove(tmp)
    return k, []
