"""``merge_shards`` copies each verified shard line's text.

Shard files are written canonically, so the merged file is byte-identical
to an unsharded run without encoding a row.  A hand-reformatted line is
carried through as given: ``sweep-verify`` still reads it as the row it
is, and a results-store ingest still stores canonical text.  Damage still
stops the merge at its ``path:line``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

from repro.cli import main
from repro.results import ResultsStore
from repro.sweep import mixed_grid, run_sweep, shard_path
from repro.sweep.persist import merge_shards

#: A cross-family grid with one fault plan beside the fault-free cells
#: and a non-zero service time, in the cell ids and the rows.
SPEC = dataclasses.replace(
    mixed_grid(seeds=(0,)), faults=("", "loss:0.05"), service_time=0.25
)
CELLS = SPEC.num_cells()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The unsharded file and its three shards (read-only)."""
    root = tmp_path_factory.mktemp("merge-text")
    whole = str(root / "whole.jsonl")
    run_sweep(SPEC, whole)
    shards = [shard_path(str(root / "part.jsonl"), i, 3) for i in range(3)]
    for i, path in enumerate(shards):
        run_sweep(SPEC, path, shard=(i, 3))
    return whole, shards


def lines_of(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def copied_shards(tmp_path, shards) -> list[str]:
    paths = [str(tmp_path / f"shard{i}.jsonl") for i in range(len(shards))]
    for src, dst in zip(shards, paths):
        shutil.copyfile(src, dst)
    return paths


def test_three_canonical_shards_merge_to_the_unsharded_bytes(tmp_path, sweep):
    whole, shards = sweep
    merged = tmp_path / "merged.jsonl"
    assert merge_shards([shards[2], shards[0], shards[1]], str(merged),
                        expect_cells=CELLS) == (CELLS, [])
    assert merged.read_bytes() == open(whole, "rb").read()
    rows = [json.loads(line) for line in lines_of(merged)]
    assert {r["faults"] for r in rows if "faults" in r} == {"loss:0.05"}
    assert {r["service_time"] for r in rows} == {0.25}


def reformat_one_line(path, p) -> tuple[dict, str]:
    """Rewrite line ``p`` of ``path`` as the same row in other text: keys
    reversed, spaces after separators and around the line."""
    lines = lines_of(path)
    row = json.loads(lines[p])
    text = json.dumps(dict(reversed(list(row.items()))), separators=(", ", ": "))
    lines[p] = "  " + text + " \t"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return row, text


@pytest.fixture
def reformatted(tmp_path, sweep):
    """A merge of the shards with one line of shard 1 reformatted."""
    whole, shards = sweep
    paths = copied_shards(tmp_path, shards)
    row, text = reformat_one_line(paths[1], 2)
    merged = tmp_path / "merged.jsonl"
    assert merge_shards(paths, str(merged), expect_cells=CELLS) == (CELLS, [])
    return whole, str(merged), row, text


def test_a_reformatted_line_is_carried_through_as_given(reformatted, capsys):
    whole, merged, row, text = reformatted
    got, want = lines_of(merged), lines_of(whole)
    k = row["index"]
    assert k == 1 + 2 * 3  # line 3 of the residue-1 shard
    assert got[k] == text and json.loads(text) == row
    assert got[:k] + got[k + 1:] == want[:k] + want[k + 1:]
    code = main(["sweep-verify", "--a", merged, "--b", whole, "--expect-cells", str(CELLS)])
    assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().out == (
        f"sweep-verify OK: {CELLS} rows identical across {merged} and {whole}\n"
    )


def test_ingesting_the_merge_stores_canonical_text(reformatted, tmp_path):
    whole, merged, _, _ = reformatted
    stored = []
    for name, source in (("canonical", whole), ("reformatted", merged)):
        store = ResultsStore(str(tmp_path / name))
        assert store.ingest(SPEC, source).new_rows == CELLS
        with open(store.rows_path(SPEC.spec_hash()), "rb") as fh:
            stored.append(fh.read())
    assert stored[0] == stored[1] == open(whole, "rb").read()


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda line: line[: len(line) // 2], "corrupt JSONL row"),
        (lambda line: "[1, 2]", "not a JSON object; not a sweep row"),
        (lambda line: line.replace('"latency_hist":[', '"latency_hist":[1000,'),
         "latency_hist has 17 bins, expected 16"),
        (lambda line: line.replace('"index":', '"index":true,"was":'),
         "no integer 'index' column (found True)"),
    ],
    ids=["torn", "not-an-object", "invariant", "bool-index"],
)
def test_a_damaged_line_still_names_its_path_and_line(tmp_path, sweep, damage, problem):
    _, shards = sweep
    paths = copied_shards(tmp_path, shards)
    lines = lines_of(paths[2])
    lines[3] = damage(lines[3])
    with open(paths[2], "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    merged = tmp_path / "merged.jsonl"
    rows, problems = merge_shards(paths, str(merged), expect_cells=CELLS)
    assert problems == [f"{paths[2]}:4: {problem}"]
    assert rows == 2 + 3 * 3  # rows 0..10 merged, row 11 is the damaged one
    assert not merged.exists() and not (tmp_path / "merged.jsonl.tmp").exists()
