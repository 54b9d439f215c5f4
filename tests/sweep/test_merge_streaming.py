"""Streaming ``merge_shards``: constant-memory path + rejection coverage.

``tests/sweep/test_shard.py`` covers the merge's historical rejection
paths (contiguity, duplicates, torn lines, mixed shardings, histogram
invariants) against real sweep output; this module pins down what the
interleave adds — peak memory independent of grid size, one problem
naming the first offending line, in-file ordering — on synthetic shard
files, and that ``diff_rows`` streams too.
"""

import os
import tracemalloc

import pytest

from repro.sweep import dumps_row
from repro.sweep.persist import diff_rows, merge_shards


def write_shard(path, indices, pad=0):
    with open(path, "w", encoding="utf-8") as fh:
        for i in indices:
            row = {"index": i, "cell_id": f"c{i}"}
            if pad:
                row["pad"] = "x" * pad
            fh.write(dumps_row(row) + "\n")
    return str(path)


def round_robin_shards(tmp_path, n, m, pad=0, tag=""):
    return [
        write_shard(tmp_path / f"{tag}s{i}-{m}.jsonl", range(i, n, m), pad=pad)
        for i in range(m)
    ]


def merge_peak_bytes(tmp_path, n, pad):
    """Peak traced allocation while merging an n-cell grid of fat rows."""
    shards = round_robin_shards(tmp_path, n, 3, pad=pad, tag=f"g{n}")
    out = str(tmp_path / f"merged{n}.jsonl")
    tracemalloc.start()
    try:
        rows, problems = merge_shards(shards, out, expect_cells=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == [] and rows == n
    return peak, out


def test_peak_memory_independent_of_grid_size(tmp_path):
    pad = 2000  # ~2KB per row: 3000 rows ≈ 6MB of row data on disk
    small_peak, _ = merge_peak_bytes(tmp_path, 60, pad)
    large_peak, out = merge_peak_bytes(tmp_path, 3000, pad)
    # A buffering merge holds every parsed row (≈3x the on-disk bytes in
    # dict form); the streaming merge holds one row per shard plus file
    # buffers.  The absolute cap fails buffering by an order of
    # magnitude while leaving the streaming path a wide margin.
    assert large_peak < 1_500_000, f"peak {large_peak} bytes looks buffered"
    assert large_peak < max(4 * small_peak, 1_000_000)
    # And the streamed output is still the canonical grid-order file.
    with open(out, encoding="utf-8") as fh:
        for expected, line in enumerate(fh):
            assert f'"index":{expected}' in line.replace(" ", "")


def test_diff_rows_peak_memory_independent_of_file_size(tmp_path):
    pad = 2000
    peaks = []
    for n in (60, 3000):
        path = write_shard(tmp_path / f"g{n}.jsonl", range(n), pad=pad)
        tracemalloc.start()
        try:
            rows, problems = diff_rows(path, path, expect_cells=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (rows, problems) == (n, [])
    small_peak, large_peak = peaks
    # Two buffered files of 3000 fat rows would hold ~36MB of dicts.
    assert large_peak < 1_500_000, f"peak {large_peak} bytes looks buffered"
    assert large_peak < max(4 * small_peak, 1_000_000)


def test_merged_bytes_match_single_writer_output(tmp_path):
    shards = round_robin_shards(tmp_path, 10, 2)
    reference = write_shard(tmp_path / "reference.jsonl", range(10))
    out = tmp_path / "merged.jsonl"
    rows, problems = merge_shards(shards, str(out), expect_cells=10)
    assert problems == [] and rows == 10
    assert out.read_bytes() == open(reference, "rb").read()


def test_out_of_order_shard_file_is_rejected(tmp_path):
    bad = write_shard(tmp_path / "bad.jsonl", [1, 0])
    out = tmp_path / "merged.jsonl"
    rows, problems = merge_shards([bad], str(out))
    assert any("out of order" in p for p in problems)
    assert not out.exists()


def test_non_object_rows_are_problems_not_crashes(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        dumps_row({"index": 0, "cell_id": "c0"}) + "\n[1,2,3]\n", encoding="utf-8"
    )
    rows, problems = merge_shards([str(bad)], str(tmp_path / "merged.jsonl"))
    assert any("not a JSON object" in p for p in problems)


def refused(shards, out):
    """The merge's one problem; ``out`` and its ``.tmp`` were not written."""
    rows, problems = merge_shards(shards, str(out))
    assert len(problems) == 1, problems
    assert not out.exists() and not os.path.exists(str(out) + ".tmp")
    return problems[0]


def test_problem_index_lists_are_capped(tmp_path):
    # Only the even-residue shard of a 200-cell 2-sharding has rows: 100
    # indices are missing, and the merge names the first row that shows
    # it — index 2 standing where index 1 belongs — in one problem.
    even = write_shard(tmp_path / "s0-2.jsonl", range(0, 200, 2))
    odd = write_shard(tmp_path / "s1-2.jsonl", [])
    problem = refused([even, odd], tmp_path / "merged.jsonl")
    assert problem.startswith(f"{even}:2: index 2 out of order")
    assert "no shard holds index 1" in problem


def test_duplicate_index_lists_are_capped(tmp_path):
    # 20 duplicated indices, one problem: the second file's first line
    # claims the residue the first file already holds.
    same = write_shard(tmp_path / "dup.jsonl", range(0, 40, 2))
    again = write_shard(tmp_path / "dup2.jsonl", range(0, 40, 2))
    problem = refused([same, again], tmp_path / "merged.jsonl")
    assert problem.startswith(f"{again}:1: index 0 is residue 0 of 2, as in {same}")


def test_wholly_damaged_shard_problems_are_capped(tmp_path):
    # Constant memory holds on the reject path too: a shard of 500
    # corrupt lines is one problem, its first line.
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n" * 500, encoding="utf-8")
    problem = refused([str(bad)], tmp_path / "merged.jsonl")
    assert problem == f"{bad}:1: corrupt JSONL row"


def test_no_input_is_refused(tmp_path):
    assert refused([], tmp_path / "merged.jsonl") == "merge: no shard files given"


def test_boolean_index_is_not_a_cell_index(tmp_path):
    # ``true`` is a bool, and a bool is an int: without the exact type
    # check it would merge as cell 1.
    shard = tmp_path / "s0-1.jsonl"
    shard.write_text(
        dumps_row({"index": 0}) + "\n" + dumps_row({"index": True}) + "\n",
        encoding="utf-8",
    )
    problem = refused([str(shard)], tmp_path / "merged.jsonl")
    assert problem == f"{shard}:2: no integer 'index' column (found True)"


def test_no_tmp_sidecar_left_behind_on_rejection(tmp_path):
    bad = write_shard(tmp_path / "bad.jsonl", [0, 2])  # gap at 1, m=1
    out = tmp_path / "merged.jsonl"
    rows, problems = merge_shards([bad], str(out))
    assert problems
    assert not out.exists()
    assert not os.path.exists(str(out) + ".tmp")


def test_unwritable_output_raises_oserror_with_path(tmp_path):
    shard = write_shard(tmp_path / "s0-1.jsonl", [0, 1])
    with pytest.raises(OSError):
        merge_shards([shard], str(tmp_path / "no-such-dir" / "out.jsonl"))


def test_diff_rows_flags_non_object_rows(tmp_path):
    a = tmp_path / "a.jsonl"
    a.write_text('["not", "a", "row"]\n', encoding="utf-8")
    rows, problems = diff_rows(str(a), str(a))
    assert any("not a JSON object" in p for p in problems)
