"""Sharded sweep tests: partition, merge, guards against shared files."""

import json

import pytest

from repro.errors import SweepError
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    dumps_row,
    run_sweep,
    shard_path,
    smoke_grid,
)
from repro.sweep.persist import merge_shards


def tiny_spec():
    return SweepSpec(
        name="tiny",
        graphs=(GraphSpec.of("complete", n=6), GraphSpec.of("path", n=7)),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("poisson", per_node=4, rate_per_node=0.5),),
        seeds=(0, 1, 2),
    )


def run_shards(tmp_path, count):
    paths = []
    for i in range(count):
        p = shard_path(str(tmp_path / "sweep.jsonl"), i, count)
        summary = run_sweep(tiny_spec(), p, shard=(i, count))
        assert summary["shard"] == f"{i}/{count}"
        paths.append(p)
    return paths


def test_shard_path_naming():
    assert shard_path("sweep.jsonl", 0, 2) == "sweep.shard0-2.jsonl"
    assert shard_path("out/f.jsonl", 3, 16) == "out/f.shard3-16.jsonl"


def test_shard_merge_round_trip_byte_identical(tmp_path):
    whole = tmp_path / "whole.jsonl"
    run_sweep(tiny_spec(), str(whole))
    shards = run_shards(tmp_path, 2)
    merged = tmp_path / "merged.jsonl"
    rows, problems = merge_shards(shards, str(merged), expect_cells=6)
    assert problems == [] and rows == 6
    assert merged.read_bytes() == whole.read_bytes()


def test_shards_partition_without_overlap(tmp_path):
    shards = run_shards(tmp_path, 3)
    indices = []
    for i, p in enumerate(shards):
        with open(p) as fh:
            for line in fh:
                row = json.loads(line)
                assert row["index"] % 3 == i
                indices.append(row["index"])
    assert sorted(indices) == list(range(6))


def test_shard_resumes_like_an_unsharded_file(tmp_path):
    (shard0, shard1) = run_shards(tmp_path, 2)
    whole = open(shard1, "rb").read()
    lines = whole.decode().strip().split("\n")
    with open(shard1, "w") as fh:
        fh.write(lines[0] + "\n" + lines[1][:30])  # torn tail
    summary = run_sweep(tiny_spec(), shard1, shard=(1, 2))
    assert summary["skipped"] == 1 and summary["written"] == 2
    assert open(shard1, "rb").read() == whole


def refused(shards, out):
    """The merge's one problem; ``out`` and its ``.tmp`` were not written."""
    rows, problems = merge_shards(shards, str(out))
    assert len(problems) == 1, problems
    assert not out.exists() and not (out.parent / (out.name + ".tmp")).exists()
    return problems[0]


def test_merge_rejects_missing_shard(tmp_path):
    shards = run_shards(tmp_path, 2)
    nope = str(tmp_path / "nope.jsonl")
    problem = refused([shards[0], nope], tmp_path / "merged.jsonl")
    assert problem == f"{nope}: missing shard file"


def test_merge_rejects_duplicate_rows(tmp_path):
    shards = run_shards(tmp_path, 2)
    problem = refused([shards[0], shards[0], shards[1]], tmp_path / "merged.jsonl")
    assert problem.startswith(
        f"{shards[0]}:1: index 0 is residue 0 of 3, as in {shards[0]}"
    )


def test_merge_rejects_mixed_shardings(tmp_path):
    """An unsharded file passed alongside real shards holds index 1
    where the interleave expects 2."""
    shards = run_shards(tmp_path, 2)
    whole = tmp_path / "whole.jsonl"
    run_sweep(tiny_spec(), str(whole))
    problem = refused([str(whole), shards[1]], tmp_path / "merged.jsonl")
    assert problem.startswith(f"{whole}:2: index 1 out of order, expected 2")


def test_merge_is_independent_of_file_order_and_empty_shards(tmp_path):
    whole = tmp_path / "whole.jsonl"
    run_sweep(smoke_grid(), str(whole))
    merged = tmp_path / "merged.jsonl"
    for count in (2, 8):  # 8 shards of the 4-cell grid: four empty files
        paths = [shard_path(str(tmp_path / "s.jsonl"), i, count) for i in range(count)]
        for i, path in enumerate(paths):
            run_sweep(smoke_grid(), path, shard=(i, count))
        rows, problems = merge_shards(paths[::-1], str(merged), expect_cells=4)
        assert (rows, problems) == (4, [])
        assert merged.read_bytes() == whole.read_bytes()


def test_merge_detects_lost_tail_via_expect_cells(tmp_path):
    """A shard that lost only trailing cells looks internally complete;
    only expect_cells (= SweepSpec.num_cells()) closes that gap."""
    shards = run_shards(tmp_path, 2)
    lines = open(shards[1]).read().strip().split("\n")
    with open(shards[1], "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")  # drop the final cell
    merged = tmp_path / "merged.jsonl"
    rows, problems = merge_shards(shards, str(merged), expect_cells=6)
    assert any("expected 6 rows" in p for p in problems)
    assert not merged.exists()


def test_merge_rejects_wrong_expect_cells(tmp_path):
    shards = run_shards(tmp_path, 2)
    rows, problems = merge_shards(
        shards, str(tmp_path / "merged.jsonl"), expect_cells=7
    )
    assert any("expected 7 rows" in p for p in problems)


def test_merge_rejects_torn_tail_and_rowless_lines(tmp_path):
    shards = run_shards(tmp_path, 2)
    with open(shards[1], "a") as fh:
        fh.write('{"torn":')
    rows, problems = merge_shards(shards, str(tmp_path / "merged.jsonl"))
    assert any("corrupt JSONL row" in p for p in problems)


def test_merge_rejects_rows_without_index(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(dumps_row({"cell_id": "x"}) + "\n")
    problem = refused([str(bad)], tmp_path / "merged.jsonl")
    assert problem == f"{bad}:1: no integer 'index' column (found None)"


def test_invalid_shard_tuples_rejected(tmp_path):
    for bad in ((2, 2), (-1, 2), (0, 0)):
        with pytest.raises(SweepError):
            run_sweep(tiny_spec(), str(tmp_path / "s.jsonl"), shard=bad)


def test_single_shard_of_one_equals_whole_grid(tmp_path):
    whole = tmp_path / "whole.jsonl"
    single = tmp_path / "single.jsonl"
    run_sweep(tiny_spec(), str(whole))
    summary = run_sweep(tiny_spec(), str(single), shard=(0, 1))
    assert summary["written"] == 6
    assert single.read_bytes() == whole.read_bytes()


def test_concurrent_writer_guard(tmp_path):
    fcntl = pytest.importorskip("fcntl")
    out = str(tmp_path / "guarded.jsonl")
    with open(out + ".lock", "w") as holder:
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(SweepError):
            run_sweep(tiny_spec(), out)
    # Lock released: the same file now sweeps fine.
    summary = run_sweep(tiny_spec(), out)
    assert summary["written"] == 6
