"""Damaged sweep files: a stray non-object line, and every-byte truncation.

Two properties of the readers behind resume, verify, merge and ingest:

* a line that parses to something other than a JSON object is damage
  wherever it stands — a ``ReproError`` naming ``path:line``, never kept,
  rewritten or crashed on;
* a file cut at *any* byte either yields the clean outcome byte for byte
  or a named problem — never a raw ``KeyError`` / ``JSONDecodeError`` /
  ``AttributeError``, never a silently shorter merged or stored file;
* a byte that is not UTF-8 is damage on its line, like a line that is
  not JSON — never a ``UnicodeDecodeError``.
"""

import re

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.results import ResultsStore
from repro.sweep import run_sweep, shard_path, smoke_grid
from repro.sweep.persist import compact, diff_rows, iter_rows, merge_shards


@pytest.fixture(scope="module")
def smoke_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean") / "smoke.jsonl"
    run_sweep(smoke_grid(), str(path))
    return path.read_bytes()


# ----------------------------------------------------------------------
# a complete line that is not an object
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stray", ["[1, 2]", "7", '"x"'])
@pytest.mark.parametrize("where", [1, 4], ids=["mid-file", "last"])
def test_non_object_line_is_named_damage(tmp_path, capsys, smoke_bytes, stray, where):
    lines = smoke_bytes.decode().splitlines()
    lines.insert(where, stray)
    path = tmp_path / "smoke.jsonl"
    damaged = "\n".join(lines) + "\n"
    path.write_text(damaged)
    message = rf"{path}:{where + 1}: not a JSON object; not a sweep row"

    with pytest.raises(ReproError, match=message):
        list(iter_rows(str(path)))
    with pytest.raises(ReproError, match=message):
        compact(str(path))
    with pytest.raises(ReproError, match=message):
        main(["sweep", "--grid", "smoke", "--out", str(path)])
    assert path.read_text() == damaged  # nothing rewrote the file

    capsys.readouterr()
    store = tmp_path / "store"
    assert main(["results", "ingest", str(path), "--store", str(store),
                 "--grid", "smoke"]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{where + 1}: not a JSON object" in err
    assert "Traceback" not in err
    assert not store.exists()


# ----------------------------------------------------------------------
# a row followed by more data on its line
# ----------------------------------------------------------------------
@pytest.mark.parametrize("extra", [' {"index": 9}', "]", " 1"])
def test_a_row_with_extra_data_on_its_line_is_corrupt(tmp_path, smoke_bytes, extra):
    """Two values on one line are no row: the first is not taken."""
    lines = smoke_bytes.decode().splitlines()
    lines[1] += extra
    path = tmp_path / "smoke.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReproError, match=rf"{path}:2: corrupt JSONL row mid-file"):
        list(iter_rows(str(path)))
    _, problems = diff_rows(str(path), str(path))
    assert problems[:2] == [f"{path}:2: corrupt JSONL row"] * 2
    shards = [str(path), str(tmp_path / "empty.jsonl")]
    (tmp_path / "empty.jsonl").write_text("")
    assert merge_shards(shards, str(tmp_path / "merged.jsonl")) == (
        1, [f"{path}:2: corrupt JSONL row"]
    )


# ----------------------------------------------------------------------
# truncation at every byte offset
# ----------------------------------------------------------------------
def test_truncation_at_every_byte_is_the_clean_outcome_or_a_named_problem(
    tmp_path, smoke_bytes, monkeypatch
):
    spec = smoke_grid()
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(smoke_bytes)
    row_ends = [i + 1 for i, b in enumerate(smoke_bytes) if b == 0x0A]

    # The clean outcomes each truncated run is held to.
    merged_out = tmp_path / "sharded.jsonl"
    shard_files = [shard_path(str(merged_out), i, 2) for i in range(2)]
    for i, shard_file in enumerate(shard_files):
        run_sweep(spec, shard_file, shard=(i, 2))
    with open(shard_files[0], "rb") as fh:
        shard0_bytes = fh.read()
    clean_store = ResultsStore(str(tmp_path / "clean_store"))
    clean_store.ingest(spec, str(clean))
    with open(clean_store.rows_path(spec.spec_hash()), "rb") as fh:
        stored_bytes = fh.read()

    # The readers are under test, not the engines: a resumed run re-reads
    # each missing cell's row instead of re-simulating it ~5,000 times.
    rows_by_id = {row["cell_id"]: row for row in iter_rows(str(clean))}
    monkeypatch.setattr(
        "repro.sweep.executor.execute_cell", lambda cell: rows_by_id[cell.cell_id]
    )

    cut = tmp_path / "cut.jsonl"
    for offset in range(len(smoke_bytes) + 1):
        # A cut just before a row's newline leaves that row whole.
        whole_rows = sum(end - 1 <= offset for end in row_ends)
        cut.write_bytes(smoke_bytes[:offset])

        # verify: identical, or problems that name the damage.
        rows, problems = diff_rows(str(cut), str(clean))
        if whole_rows == 4:
            assert (rows, problems) == (4, []), offset
        else:
            assert any(str(cut) in p or "row count differs" in p
                       for p in problems), offset

        # ingest: the clean store, or a report that says partial.
        store = ResultsStore(str(tmp_path / f"store{offset}"))
        report = store.ingest(spec, str(cut))
        assert report.total_rows == whole_rows, offset
        if report.complete:
            with open(store.rows_path(spec.spec_hash()), "rb") as fh:
                assert fh.read() == stored_bytes, offset
        else:
            assert "(partial)" in report.summary(), offset

        # resume: compact + run_sweep always heals to the clean bytes.
        summary = run_sweep(spec, str(cut))
        assert summary["skipped"] == whole_rows, offset
        assert cut.read_bytes() == smoke_bytes, offset

    # merge, with the cut file standing in as shard 0 of 2.
    for offset in range(len(shard0_bytes) + 1):
        with open(shard_files[0], "wb") as fh:
            fh.write(shard0_bytes[:offset])
        rows, problems = merge_shards(shard_files, str(merged_out), expect_cells=4)
        if offset >= len(shard0_bytes) - 1:
            assert problems == [] and merged_out.read_bytes() == smoke_bytes
            merged_out.unlink()
        else:
            assert problems and not merged_out.exists(), offset


# ----------------------------------------------------------------------
# whole-line damage: duplicated, dropped, moved and swapped lines, and
# newlines replaced by characters only ``str.splitlines`` would break on
# ----------------------------------------------------------------------
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x85", " ", "\r"]


def line_mutations(lines):
    """Every (name, text) one whole-line edit away from ``lines``."""
    for i, line in enumerate(lines):
        rest = lines[:i] + lines[i + 1:]
        yield f"dup{i}", "".join(lines[: i + 1] + lines[i:])
        yield f"drop{i}", "".join(rest)
        for j in range(len(lines)):
            if j != i:
                yield f"move{i}to{j}", "".join(rest[:j] + [line] + rest[j:])
        for sep in SEPARATORS:
            yield f"sep{i}={sep!r}", "".join(
                lines[:i] + [line[:-1] + sep] + lines[i + 1:]
            )


def outcome(read):
    """What a reader returns, or the ``ReproError`` text it raises."""
    try:
        return read()
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_whole_line_damage_is_the_clean_outcome_or_a_named_problem(
    tmp_path, smoke_bytes
):
    spec = smoke_grid()
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(smoke_bytes)
    clean_ids = {row["cell_id"] for row in iter_rows(str(clean))}
    clean_store = ResultsStore(str(tmp_path / "clean_store"))
    clean_store.ingest(spec, str(clean))
    with open(clean_store.rows_path(spec.spec_hash()), "rb") as fh:
        stored_bytes = fh.read()

    bad = tmp_path / "bad.jsonl"
    lines = smoke_bytes.decode().splitlines(keepends=True)
    named = 0
    for name, text in line_mutations(lines):
        bad.write_text(text, encoding="utf-8", newline="")

        # verify: the clean verdict, or problems.
        rows, problems = diff_rows(str(bad), str(clean))
        assert problems or rows == 4, name
        named += bool(problems)

        # ingest: the clean store, a report that says partial, or an error.
        store = ResultsStore(str(tmp_path / f"store-{name}"))
        report = outcome(lambda: store.ingest(spec, str(bad)))
        if isinstance(report, str):
            assert str(bad) in report, name
        elif report.complete:
            with open(store.rows_path(spec.spec_hash()), "rb") as fh:
                assert fh.read() == stored_bytes, name
        else:
            assert report.total_rows < 4 and "(partial)" in report.summary(), name

        # resume: both resume readers agree on every file ...
        read = outcome(lambda: list(iter_rows(str(bad))))
        ids = outcome(lambda: compact(str(bad)))
        if isinstance(read, str):
            assert ids == read and str(bad) in read, name
            assert bad.read_bytes() == text.encode(), name  # nothing rewrote it
            continue
        assert ids == {row["cell_id"] for row in read}, name
        # ... and a resumed run either heals the file to the clean bytes
        # or leaves damage that verification still names — every cell is
        # there either way, so nothing got silently shorter.
        run_sweep(spec, str(bad))
        assert {row["cell_id"] for row in iter_rows(str(bad))} == clean_ids, name
        assert (
            bad.read_bytes() == smoke_bytes
            or diff_rows(str(bad), str(clean))[1]
        ), name
    # verify names every edit but the nine that change no row: a ``\r``
    # is a line ending, a separator after the last row trailing whitespace.
    assert named == 44 - 9


def test_whole_line_damage_to_a_shard_never_merges_short(tmp_path, smoke_bytes):
    spec = smoke_grid()
    out = tmp_path / "merged.jsonl"
    paths = [shard_path(str(out), i, 2) for i in range(2)]
    shards = []
    for i, path in enumerate(paths):
        run_sweep(spec, path, shard=(i, 2))
        with open(path, encoding="utf-8") as fh:
            shards.append(fh.readlines())

    def merged_or_refused(texts, name):
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        rows, problems = merge_shards(paths, str(out), expect_cells=4)
        if problems:
            assert not out.exists(), name
        else:
            assert rows == 4 and out.read_bytes() == smoke_bytes, name
            out.unlink()
        return bool(problems)

    clean = ["".join(lines) for lines in shards]
    assert not merged_or_refused(clean, "clean")
    refused = 0
    for k in range(2):
        for name, text in line_mutations(shards[k]):
            texts = list(clean)
            texts[k] = text
            refused += merged_or_refused(texts, f"shard{k}:{name}")
    for i in range(2):
        for j in range(2):
            a, b = list(shards[0]), list(shards[1])
            a[i], b[j] = b[j], a[i]
            assert merged_or_refused(["".join(a), "".join(b)], f"swap{i}x{j}")
    assert refused == 2 * (18 - 7)  # per shard, all but the seven row-preserving edits


def test_a_resumed_sweep_says_it_dropped_a_torn_tail(tmp_path, capsys, smoke_bytes):
    path = tmp_path / "smoke.jsonl"
    path.write_bytes(smoke_bytes[:-25])
    assert run_sweep(smoke_grid(), str(path))["torn_dropped"] == 1
    assert run_sweep(smoke_grid(), str(path))["torn_dropped"] == 0

    path.write_bytes(smoke_bytes[:-25])
    capsys.readouterr()
    assert main(["sweep", "--grid", "smoke", "--out", str(path)]) == 0
    assert ("1 written, 3 skipped of 4 cells (1 torn trailing line dropped)"
            in capsys.readouterr().out)
    assert path.read_bytes() == smoke_bytes


# ----------------------------------------------------------------------
# a byte that is not UTF-8
# ----------------------------------------------------------------------
NOT_UTF8 = "corrupt JSONL row (not UTF-8)"


def with_byte(data: bytes, at: int, byte: int = 0xFF) -> bytes:
    return data[:at] + bytes([byte]) + data[at + 1:]


def failed(capsys, argv) -> str:
    """Run ``argv`` expecting exit 1 without a traceback; return stderr."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "UnicodeDecodeError" not in err
    return err


@pytest.mark.parametrize("line", [1, 3], ids=["first-row", "third-row"])
def test_a_byte_that_is_not_utf8_is_that_lines_damage(tmp_path, capsys, smoke_bytes, line):
    """Rows are ASCII: a bad byte is damage on its line, never a decode crash."""
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(smoke_bytes)
    at = (0, *(i + 1 for i, b in enumerate(smoke_bytes) if b == 0x0A))[line - 1] + 50
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(with_byte(smoke_bytes, at))
    where = f"{bad}:{line}: {NOT_UTF8}"

    assert where in failed(capsys, ["sweep-verify", "--a", str(bad), "--b", str(clean)])
    assert where in failed(capsys, ["results", "compare", "--store", str(tmp_path / "st"),
                                    "--a", str(bad), "--b", str(clean)])
    err = failed(capsys, ["sweep-merge", str(bad), "--out", str(tmp_path / "merged.jsonl")])
    assert where in err and not (tmp_path / "merged.jsonl").exists()
    # resume: a damaged line mid-file is an error, and nothing is rewritten.
    with pytest.raises(ReproError, match=re.escape(f"{where} mid-file")):
        compact(str(bad))
    assert f"{where} mid-file" in failed(
        capsys, ["results", "ingest", str(bad), "--store", str(tmp_path / "st"),
                 "--grid", "smoke"])
    assert bad.read_bytes() == with_byte(smoke_bytes, at)


def test_a_torn_multibyte_tail_is_a_torn_line(tmp_path, capsys, smoke_bytes):
    """A write cut inside a UTF-8 sequence leaves an unterminated last line
    that is not UTF-8: *resume* drops it like any torn line."""
    path = tmp_path / "smoke.jsonl"
    torn = smoke_bytes + b'{"cell_id":"\xe2\x82'
    path.write_bytes(torn)
    skipped: list[str] = []
    assert len(list(iter_rows(str(path), skipped=skipped))) == 4
    assert skipped == [f"{path}:5: torn trailing line dropped (interrupted run)"]
    _, problems = diff_rows(str(path), str(path))
    assert problems[:2] == [f"{path}:5: {NOT_UTF8}"] * 2
    assert len(compact(str(path))) == 4 and path.read_bytes() == smoke_bytes

    path.write_bytes(torn)
    capsys.readouterr()
    assert main(["sweep", "--grid", "smoke", "--out", str(path)]) == 0
    assert "(1 torn trailing line dropped)" in capsys.readouterr().out
    assert path.read_bytes() == smoke_bytes
