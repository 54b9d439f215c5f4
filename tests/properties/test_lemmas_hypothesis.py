"""Property-based tests (hypothesis): the Section 3 lemmas on random input.

Strategy: random parent-array trees + random (node, time) schedules; run
the message-level protocol; check the structural lemmas on the realised
execution.  Times are drawn from a coarse float grid so that both tie-free
and tie-heavy instances are generated.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.verify import check_lemma_3_8
from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.core.runner import run_arrow
from repro.spanning.tree import SpanningTree
from lemma_oracles import (
    check_direct_path_property,
    check_fact_3_6,
    check_lemma_3_9,
    lemma_3_10_identity_gap,
)
from small_models import tree_graph


@st.composite
def tree_and_schedule(draw, max_nodes=12, max_requests=10):
    """A random rooted tree plus a random request schedule on it."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    # Random parent array: parent[i] < i gives a valid rooted tree at 0.
    parent = [0] * n
    for i in range(1, n):
        parent[i] = draw(st.integers(min_value=0, max_value=i - 1))
    tree = SpanningTree(parent, root=0)
    m = draw(st.integers(min_value=1, max_value=max_requests))
    pairs = []
    for _ in range(m):
        node = draw(st.integers(min_value=0, max_value=n - 1))
        time = draw(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False).map(
                lambda x: round(x * 4) / 4  # grid of 0.25 -> frequent ties
            )
        )
        pairs.append((node, time))
    return tree, RequestSchedule(pairs)


@given(tree_and_schedule())
@settings(max_examples=60, deadline=None)
def test_lemma_3_8_nn_property(ts):
    tree, sched = ts
    res = run_arrow(tree_graph(tree), tree, sched)
    order = verify_total_order(res)
    assert check_lemma_3_8(tree, sched, order)


@given(tree_and_schedule())
@settings(max_examples=60, deadline=None)
def test_lemma_3_9_time_separation(ts):
    tree, sched = ts
    res = run_arrow(tree_graph(tree), tree, sched)
    assert check_lemma_3_9(tree, sched, res.order)


@given(tree_and_schedule())
@settings(max_examples=60, deadline=None)
def test_fact_3_6_ct_nonnegative(ts):
    tree, sched = ts
    assert check_fact_3_6(tree, sched)


@given(tree_and_schedule())
@settings(max_examples=60, deadline=None)
def test_lemma_3_10_identity(ts):
    tree, sched = ts
    res = run_arrow(tree_graph(tree), tree, sched)
    assert lemma_3_10_identity_gap(tree, sched, res.order) < 1e-6


@given(tree_and_schedule())
@settings(max_examples=60, deadline=None)
def test_direct_path_theorem(ts):
    tree, sched = ts
    res = run_arrow(tree_graph(tree), tree, sched)
    assert check_direct_path_property(tree, res)


@given(tree_and_schedule())
@settings(max_examples=40, deadline=None)
def test_executor_cost_matches_simulation_or_ties(ts):
    """Tie-free: exact match.  Ties: simulated cost is NN-valid anyway."""
    tree, sched = ts
    res = run_arrow(tree_graph(tree), tree, sched)
    pred = predict_arrow_run(tree, sched)
    if not pred.had_ties:
        assert res.order == pred.order
        assert abs(res.total_latency - pred.arrow_cost) < 1e-9
