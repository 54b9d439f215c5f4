"""Damaged sweep files: a stray non-object line, and every-byte truncation.

Two properties of the readers behind resume, verify, merge and ingest:

* a line that parses to something other than a JSON object is damage
  wherever it stands — a ``ReproError`` naming ``path:line``, never kept,
  rewritten or crashed on;
* a file cut at *any* byte either yields the clean outcome byte for byte
  or a named problem — never a raw ``KeyError`` / ``JSONDecodeError`` /
  ``AttributeError``, never a silently shorter merged or stored file.
"""

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
