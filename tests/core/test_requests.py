"""Unit tests for requests and schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.requests import NO_RID, ROOT_RID, Request, RequestSchedule
from repro.errors import ScheduleError


def test_canonical_order_is_time_major():
    s = RequestSchedule([(5, 3.0), (1, 1.0), (2, 2.0)])
    assert [r.node for r in s] == [1, 2, 5]
    assert [r.rid for r in s] == [0, 1, 2]


def test_ties_keep_insertion_order():
    s = RequestSchedule([(9, 1.0), (4, 1.0), (7, 1.0)])
    assert [r.node for r in s] == [9, 4, 7]


def test_negative_time_rejected():
    with pytest.raises(ScheduleError):
        RequestSchedule([(0, -1.0)])


def test_by_rid_lookup():
    s = RequestSchedule([(3, 0.0), (4, 1.0)])
    assert s.by_rid(1).node == 4
    with pytest.raises(ScheduleError):
        s.by_rid(7)


def test_nodes_times_vectors():
    s = RequestSchedule([(3, 0.5), (4, 1.5)])
    assert s.nodes == [3, 4]
    assert s.times == [0.5, 1.5]
    assert s.max_time() == 1.5


def test_empty_schedule():
    s = RequestSchedule([])
    assert len(s) == 0
    assert s.max_time() == 0.0


def test_validate_nodes():
    s = RequestSchedule([(3, 0.0)])
    s.validate_nodes(4)
    with pytest.raises(ScheduleError):
        s.validate_nodes(3)


def test_reserved_ids_distinct():
    assert ROOT_RID != NO_RID
    assert ROOT_RID < 0 and NO_RID < 0


def test_request_frozen():
    r = Request(0, 1.0, 0)
    with pytest.raises(AttributeError):
        r.node = 5  # type: ignore[misc]


# ----------------------------------------------------------------------
# canonical order and the on-demand Request views, as properties
# ----------------------------------------------------------------------
# Few distinct times, so most examples are dominated by ties.
tied_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.sampled_from([0, 0.0, 0.5, 1, 1.0, 2.5, 7]),
    ),
    max_size=40,
)


def reference_order(pairs):
    """§3.1's canonical indexing, spelt out: time-major, insertion-stable."""
    ranked = sorted(enumerate(pairs), key=lambda x: (x[1][1], x[0]))
    return [pair for _, pair in ranked]


@given(tied_pairs)
@settings(max_examples=200, deadline=None)
def test_schedule_is_the_reference_order(pairs):
    s = RequestSchedule(pairs)
    want = reference_order(pairs)
    assert len(s) == len(want)
    assert s.nodes == [v for v, _ in want]
    assert s.times == [t for _, t in want]
    # Plain Python scalars, whatever the pairs held.
    assert {type(v) for v in s.nodes} <= {int}
    assert {type(t) for t in s.times} <= {float}
    views = list(s)
    assert [(r.node, r.time, r.rid) for r in views] == [
        (v, t, i) for i, (v, t) in enumerate(want)
    ]
    for i, view in enumerate(views):
        assert s[i] == s.by_rid(i) == view
    assert s.max_time() == (want[-1][1] if want else 0.0)
    # Sequence indexing keeps tuple semantics ...
    assert s[0:1] == tuple(views[0:1])
    assert s[::-2] == tuple(views[::-2])
    if views:
        assert s[-1] == views[-1]
    with pytest.raises(IndexError):
        s[len(s)]
    # ... but a rid is an id, not a position: -1 is never "the last one".
    for missing in (-1, len(s), -len(s) - 1):
        with pytest.raises(ScheduleError, match=f"no request with rid {missing}"):
            s.by_rid(missing)


@given(tied_pairs)
@settings(max_examples=100, deadline=None)
def test_from_columns_is_the_pair_constructor(pairs):
    nodes = [v for v, _ in pairs]
    times = [t for _, t in pairs]
    for cols in (
        RequestSchedule.from_columns(nodes, times),
        RequestSchedule.from_columns(np.array(nodes, dtype=int), np.array(times, dtype=float)),
    ):
        s = RequestSchedule(zip(nodes, times))
        assert (cols.nodes, cols.times) == (s.nodes, s.times)
        assert list(cols) == list(s)
        assert {type(v) for v in cols.nodes} <= {int}
        assert {type(t) for t in cols.times} <= {float}
    # The caller's columns are copied, never aliased or reordered in place.
    before = (list(nodes), list(times))
    held = RequestSchedule.from_columns(nodes, times)
    assert held.nodes is not nodes and held.times is not times
    assert (nodes, times) == before


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ScheduleError, match="2 nodes.*3 times"):
        RequestSchedule.from_columns([0, 1], [0.0, 1.0, 2.0])


@given(tied_pairs.filter(bool), st.integers(min_value=1, max_value=10))
@settings(max_examples=100, deadline=None)
def test_validate_nodes_names_the_first_offender(pairs, num_nodes):
    s = RequestSchedule(pairs)
    bad = [(r.rid, r.node) for r in s if r.node >= num_nodes]
    if not bad:
        s.validate_nodes(num_nodes)
        return
    rid, node = bad[0]
    with pytest.raises(
        ScheduleError, match=rf"request {rid} at node {node} outside \[0, {num_nodes}\)"
    ):
        s.validate_nodes(num_nodes)


def test_validate_nodes_rejects_negative_nodes():
    s = RequestSchedule([(2, 0.0), (-1, 1.0), (-3, 2.0)])
    with pytest.raises(ScheduleError, match="request 1 at node -1 outside"):
        s.validate_nodes(5)


# ----------------------------------------------------------------------
# non-finite issue times
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_and_negative_times_rejected(bad):
    """A NaN used to pass ``time < 0``, sort first and make the makespan NaN."""
    pairs = [(0, 0.5), (1, 1.0), (2, bad), (3, math.nan)]
    for build in (
        lambda: RequestSchedule(pairs),
        lambda: RequestSchedule.from_columns([v for v, _ in pairs], [t for _, t in pairs]),
    ):
        with pytest.raises(ScheduleError) as err:
            build()
        # Names the first offending pair's position and value.
        assert "pair 2" in str(err.value) and str(bad) in str(err.value)
    with pytest.raises(ScheduleError):
        Request(0, bad, 0)


# ----------------------------------------------------------------------
# column types: integral nodes and real times, checked rather than cast
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "nodes, times, match",
    [
        ([1.7], [0.0], r"node must be an integer, got 1\.7 for pair 0"),
        ([0, "3"], [0.0, 1.0], r"node must be an integer, got '3' for pair 1"),
        ([0, math.nan], [0.0, 1.0], "node must be an integer"),
        ([0], ["1.5"], r"time must be a real number, got '1\.5' for pair 0"),
        ([0, 1], [0.5, 1j], "time must be a real number"),
        ([0, 1], [0.5, 10**400], "time must be finite and >= 0, got inf for pair 1"),
    ],
)
def test_from_columns_refuses_what_it_used_to_cast(nodes, times, match):
    with pytest.raises(ScheduleError, match=match):
        RequestSchedule.from_columns(nodes, times)
    with pytest.raises(ScheduleError, match=match):
        RequestSchedule(zip(nodes, times))


def test_a_node_past_64_bits_is_an_out_of_range_node_not_an_overflow():
    s = RequestSchedule.from_columns([2**63, 1], [0.0, 1.0])
    assert s.nodes == [2**63, 1]
    with pytest.raises(ScheduleError, match=f"request 0 at node {2**63} outside"):
        s.validate_nodes(4)


def test_numpy_columns_of_either_kind_give_python_scalars():
    s = RequestSchedule.from_columns(np.array([3.0, 1.0, 2.0]), np.array([2, 0, 1], dtype=np.int64))
    assert (s.nodes, s.times) == ([1, 2, 3], [0.0, 1.0, 2.0])
    assert {type(v) for v in s.nodes} == {int} and {type(t) for t in s.times} == {float}
    mixed = RequestSchedule.from_columns([np.int32(4), True], [np.float32(0.5), np.float64(0.25)])
    assert (mixed.nodes, mixed.times) == ([1, 4], [0.25, 0.5])
    assert {type(v) for v in mixed.nodes} == {int} and {type(t) for t in mixed.times} == {float}
