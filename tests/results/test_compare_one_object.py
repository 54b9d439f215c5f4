"""A pair that is one row object compares like two equal copies.

``results compare`` reads both sides in lockstep through one ``known``
map that holds the row parsed last, so a line of B equal to the line of
A just read is A's row object; :func:`compare_rows` counts such a pair as
0 % in each numeric column without walking it.  It pairs rows as they
arrive and totals the deltas in sorted cell-id order at the end.  Every
outcome — ``columns`` (order included), ``report_lines()`` and
``to_doc()`` — must equal the walked comparison of copies read without a
shared map, also with a NaN value or one changed value, and with either
side in another row order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.cli import main
from repro.results import ResultsStore, compare_rows
from repro.sweep import run_sweep, smoke_grid
from repro.sweep.persist import dumps_row, iter_rows

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden", "results_store"
)


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    """Twelve smoke-grid rows, as a stored run reads them."""
    path = str(tmp_path_factory.mktemp("one-object") / "smoke.jsonl")
    run_sweep(smoke_grid(seeds=tuple(range(6))), path)
    return list(iter_rows(path))


def copies(rows):
    """Equal rows as other objects, as two reads without a shared map give."""
    return [json.loads(dumps_row(r)) for r in rows]


def assert_same(one_object, walked):
    # json.dumps, not ==: a NaN is equal to itself only as text.
    assert json.dumps(one_object.columns) == json.dumps(walked.columns)
    assert one_object.report_lines() == walked.report_lines()
    assert json.dumps(one_object.to_doc()) == json.dumps(walked.to_doc())


@pytest.mark.parametrize("keys", ["sorted", "reversed"])
def test_one_object_pairs_compare_as_equal_copies(rows, keys):
    """Stored rows have sorted keys; rows a caller builds need not."""
    a = copies(rows)
    if keys == "reversed":
        a = [dict(reversed(list(r.items()))) for r in a]
    assert_same(compare_rows(a, a, max_delta_pct=0.0),
                compare_rows(a, copies(a), max_delta_pct=0.0))


@pytest.mark.parametrize("at", [0, 5, 11])
def test_a_nan_row_compares_as_in_equal_copies(rows, at):
    """The NaN row is walked; where it stands decides a column's largest
    delta (``max`` keeps a NaN it starts with), so it stands first,
    inside and last in cell-id order."""
    a = copies(rows)
    ordered = sorted(a, key=lambda r: r["cell_id"])
    ordered[at]["makespan"] = float("nan")
    ordered[at]["latency_mean"] = float("nan")
    b = copies(a)
    for gate in (None, 0.0):
        assert_same(compare_rows(a, a, max_delta_pct=gate),
                    compare_rows(a, b, max_delta_pct=gate))


@pytest.mark.parametrize("at", [0, 7])
def test_one_changed_value_compares_as_in_equal_copies(rows, at):
    a = copies(rows)
    changed = list(a)  # one-object pairs but one
    changed[at] = dict(a[at], makespan=a[at]["makespan"] * 1.5)
    walked = copies(a)
    walked[at]["makespan"] *= 1.5
    one_object = compare_rows(a, changed, max_delta_pct=0.0)
    assert_same(one_object, compare_rows(a, walked, max_delta_pct=0.0))
    assert one_object.columns["makespan"]["changed"] == 1.0
    assert len(one_object.exceeding) == 1


@pytest.mark.parametrize("at", [0, 5, 11])
def test_row_order_changes_no_outcome(rows, at):
    """Pairs are matched as they arrive and totalled in cell-id order, so a
    shuffled side compares as the ordered one: NaN, a changed value, a
    zero baseline, a non-numeric difference and unmatched cells included."""
    a = sorted(copies(rows), key=lambda r: r["cell_id"])
    a[at]["makespan"] = float("nan")
    a[(at + 3) % 12]["latency_mean"] = 0.0
    b = copies(a)
    b[(at + 1) % 12]["makespan"] *= 1.5
    b[(at + 2) % 12]["tree"] = "mst"
    b[(at + 3) % 12]["latency_mean"] = 2.0
    del b[(at + 4) % 12]
    b.append(dict(copies(a)[0], cell_id="only-in-b"))
    ordered = compare_rows(a, b, max_delta_pct=0.0)
    assert len(ordered.problems) == 4
    for seed in range(3):
        shuffle = random.Random(seed).sample
        assert_same(compare_rows(shuffle(a, len(a)), shuffle(b, len(b)), max_delta_pct=0.0),
                    ordered)


def test_a_column_on_one_side_only_is_still_a_problem(rows):
    a = copies(rows)
    b = list(a)
    b[3] = {k: v for k, v in a[3].items() if k != "hops_total"}
    cmp = compare_rows(a, b)
    assert cmp.problems == [f"{a[3]['cell_id']}: column 'hops_total' present on one side only"]
    assert cmp.columns["hops_total"]["cells"] == len(rows) - 1


#: SHA-256 of ``results compare``'s stdout + stderr and of its ``--out``
#: document on the golden store, B = the run's own rows file (every pair
#: one object) and B = a copy with two changed values, as printed before
#: one-object pairs stopped being walked.
GOLDEN_COMPARE = {
    "same": ("43131a0e6ebc2647047c6d36022cd90d9557f24b2c7417a79c23feddd76cdc47",
             "e3de878cc22774dc5a941b5ae62d4b8c71ac21154ae6fa3f219bf90954a2f5f2"),
    "changed": ("d9e53a1fd78b34fd00361f6f09ddbdcf169b1f4d2993c0914dcd0287e4b6214f",
                "14015b00c44b6b6ef10c53959c52f4754e0c04c44da2ac4fbdffeca6addca10b"),
}


@pytest.mark.parametrize("b", sorted(GOLDEN_COMPARE))
def test_compare_on_the_golden_store_prints_the_pinned_bytes(tmp_path, monkeypatch, capsys, b):
    store = ResultsStore(GOLDEN)
    rows_path = store.rows_path(store.manifest("smoke")["spec_hash"])
    if b == "changed":
        changed = list(iter_rows(rows_path))
        changed[2]["makespan"] *= 1.5
        changed[0]["latency_mean"] = 0.0
        rows_path = str(tmp_path / "changed.jsonl")
        with open(rows_path, "w", encoding="utf-8") as fh:
            fh.write("".join(dumps_row(r) + "\n" for r in changed))
    monkeypatch.chdir(tmp_path)
    code = main(["results", "compare", "--store", GOLDEN, "--a", "smoke", "--b", rows_path,
                 "--max-delta-pct", "0", "--out", "out.json"])
    out = capsys.readouterr()
    assert code == (b == "changed")
    printed = hashlib.sha256((out.out + out.err).encode()).hexdigest()
    document = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
    assert (printed, document) == GOLDEN_COMPARE[b]
