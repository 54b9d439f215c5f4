"""Unit tests for RunResult bookkeeping and total-order verification."""

import sys

import pytest

from repro.core import fast_arrow
from repro.core.fast_arrow import run_arrow_fast
from repro.core.queueing import (
    CompletionRecord,
    RunResult,
    verify_total_order,
)
from repro.core.requests import ROOT_RID, RequestSchedule
from repro.core.runner import run_arrow
from repro.core.totals import float_total
from repro.errors import ProtocolError
from repro.graphs import complete_graph
from repro.graphs.generators import path_graph
from repro.spanning import bfs_tree
from repro.workloads import poisson


def sched3():
    return RequestSchedule([(0, 0.0), (1, 1.0), (2, 2.0)])


def rec(rid, pred, node=0, when=1.0, hops=1):
    return CompletionRecord(rid, pred, node, when, hops)


def recorded(*records, schedule=None):
    r = RunResult(schedule if schedule is not None else sched3())
    for record in records:
        r.record(*record)
    return r


def test_order_reconstruction_follows_successor_chain():
    r = recorded(rec(2, 0), rec(0, ROOT_RID), rec(1, 2))
    assert r.order == [0, 2, 1]
    assert verify_total_order(r) == [0, 2, 1]


def test_double_completion_rejected():
    r = recorded(rec(0, ROOT_RID))
    with pytest.raises(ProtocolError, match="^request 0 completed twice$"):
        r.record(*rec(0, ROOT_RID))


def test_two_requests_claiming_same_predecessor_rejected():
    r = recorded(rec(0, ROOT_RID), rec(1, 0), rec(2, 0))
    with pytest.raises(ProtocolError, match="^requests 1 and 2 both claim predecessor 0$"):
        _ = r.order


def test_broken_chain_detected():
    r = recorded(rec(0, ROOT_RID), rec(2, 1))  # predecessor 1 never completed
    with pytest.raises(ProtocolError, match="^successor chain covers 1 of 2 completed"):
        _ = r.order


def test_missing_completion_detected():
    r = recorded(rec(0, ROOT_RID))
    with pytest.raises(ProtocolError, match="never completed"):
        verify_total_order(r)


def test_latency_and_totals():
    r = recorded((0, ROOT_RID, 0, 2.0, 2), (1, 0, 0, 4.0, 3), (2, 1, 1, 2.5, 0))
    assert r.latency(0) == 2.0
    assert r.latency(1) == 3.0
    assert r.latency(2) == 0.5
    assert r.latencies == [2.0, 3.0, 0.5]
    assert r.total_latency == pytest.approx(5.5)
    assert r.total_hops == 5
    assert r.mean_hops == pytest.approx(5 / 3)
    assert r.local_find_fraction == pytest.approx(1 / 3)


def test_empty_result_statistics():
    r = RunResult(RequestSchedule([]))
    assert r.order == []
    assert r.completions == {}
    assert r.total_latency == 0.0
    assert r.mean_hops == 0.0
    assert r.local_find_fraction == 0.0


# ----------------------------------------------------------------------
# ``completions`` is a view over the columns
# ----------------------------------------------------------------------
def test_completions_view_equals_the_recorded_records():
    records = [rec(2, 0, 1, 3.5, 2), rec(0, ROOT_RID, 0, 1.0, 0), rec(1, 2, 2, 4.0, 1)]
    r = recorded(*records)
    view = r.completions
    assert view == {record.rid: record for record in records}
    assert list(view) == [2, 0, 1]  # key order is completion order
    assert all(type(record) is CompletionRecord for record in view.values())
    assert r.completions is view  # built once, then cached


def test_completions_view_follows_a_later_record():
    r = recorded(rec(0, ROOT_RID))
    assert list(r.completions) == [0]
    r.record(*rec(1, 0))
    assert list(r.completions) == [0, 1]
    assert r.latency(1) == 0.0


def test_equality_ignores_whether_the_view_was_built():
    schedule = sched3()
    records = [rec(0, ROOT_RID), rec(1, 0), rec(2, 1)]
    a = recorded(*records, schedule=schedule)
    b = recorded(*records, schedule=schedule)
    assert a.completions and a.latency(2) == -1.0  # a's view and index exist
    assert a == b
    assert a != recorded(*records[:2], schedule=schedule)


def test_fast_and_message_results_are_the_same_columns():
    g = complete_graph(9)
    tree = bfs_tree(g, 0)
    schedule = poisson(9, 60, rate=4.0, seed=5)
    fast = run_arrow_fast(g, tree, schedule)
    message = run_arrow(g, tree, schedule)
    _ = fast.completions  # one side viewed, the other not
    assert fast == message
    assert sorted(fast.rids) == list(range(60))
    eager = {
        rid: CompletionRecord(rid, *rest)
        for rid, *rest in zip(
            message.rids,
            message.predecessors,
            message.informed_nodes,
            message.completed_at,
            message.hops,
        )
    }
    assert message.completions == eager and list(message.completions) == list(eager)
    assert fast.total_latency == float_total(fast.latency(rid) for rid in fast.completions)


# ----------------------------------------------------------------------
# the fast engine's checks on what its loop reported
# ----------------------------------------------------------------------
def _run_scripted(monkeypatch, rows):
    """``run_arrow_fast`` with a loop that reports the given completions."""

    def scripted_loop(*args, result, **kwargs):
        for row in rows:
            result.rids.append(row[0])
            result.predecessors.append(row[1])
            result.informed_nodes.append(row[2])
            result.completed_at.append(row[3])
            result.hops.append(row[4])
        return 0.0, 0, []

    monkeypatch.setattr(fast_arrow, "_arrow_loop", scripted_loop)
    g = path_graph(3)
    return run_arrow_fast(g, bfs_tree(g, 0), sched3())


def test_fast_engine_rejects_a_duplicate_completion(monkeypatch):
    rows = [(0, ROOT_RID, 0, 0.0, 0), (1, 0, 0, 1.0, 1), (0, 1, 1, 2.0, 1)]
    with pytest.raises(ProtocolError, match="^a request completed twice$"):
        _run_scripted(monkeypatch, rows)


def test_fast_engine_rejects_a_rid_outside_the_schedule(monkeypatch):
    rows = [(0, ROOT_RID, 0, 0.0, 0), (1, 0, 0, 1.0, 1), (3, 1, 1, 2.0, 1)]
    with pytest.raises(ProtocolError, match="^request 3 is not in the schedule$"):
        _run_scripted(monkeypatch, rows)


def test_fast_engine_rejects_a_short_run(monkeypatch):
    rows = [(0, ROOT_RID, 0, 0.0, 0), (2, 0, 0, 1.0, 1)]
    with pytest.raises(ProtocolError, match="^arrow run completed 2 of 3 requests$"):
        _run_scripted(monkeypatch, rows)


# ----------------------------------------------------------------------
# float totals do not depend on the interpreter's ``sum``
# ----------------------------------------------------------------------
#: CPython >= 3.12 sums floats with Neumaier compensation and answers 2.0
#: here; one left-to-right IEEE accumulation (and ``sum`` up to 3.11)
#: loses both ones against 1e16 and answers 0.0.
CANCELLING = [1.0, 1e16, 1.0, -1e16]


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_float_total_is_the_plain_left_to_right_accumulation():
    assert left_to_right(CANCELLING) == 0.0
    assert float_total(CANCELLING) == 0.0
    if sys.version_info >= (3, 12):
        assert sum(CANCELLING) == 2.0  # the two summations do differ here
    values = [0.1 * k for k in range(1, 2000)]
    assert float_total(values) == left_to_right(values)
    assert float_total(iter(values)) == left_to_right(values)
    assert float_total([]) == 0


def test_total_latency_is_the_loop_over_the_latency_column():
    """Issued at 0, completing at the cancelling times: the latency column
    is CANCELLING itself, so a ``total_latency`` that regresses to the
    builtin ``sum`` answers 2.0 on 3.12+ and fails here."""
    schedule = RequestSchedule([(0, 0.0)] * 4)
    r = recorded(
        *(rec(rid, rid - 1, 0, at, 1) for rid, at in enumerate(CANCELLING)),
        schedule=schedule,
    )
    assert r.latencies == CANCELLING
    assert r.total_latency == left_to_right(r.latencies) == 0.0
