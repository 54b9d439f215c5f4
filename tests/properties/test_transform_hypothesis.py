"""Property-based tests for the Lemma 3.11 transformation."""

from hypothesis import given, settings, strategies as st

from repro.analysis.nearest_neighbor import predict_arrow_run
from repro.analysis.optimal import opt_bounds
from repro.core.requests import RequestSchedule
from repro.spanning.tree import SpanningTree
from transform import compress_idle_time, max_gap_slack
from small_models import tree_graph


@st.composite
def chain_instance(draw, max_nodes=10, max_requests=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    tree = SpanningTree([max(0, i - 1) for i in range(n)], root=0)
    m = draw(st.integers(min_value=1, max_value=max_requests))
    pairs = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            float(draw(st.integers(min_value=0, max_value=100))),
        )
        for _ in range(m)
    ]
    return tree, RequestSchedule(pairs)


@given(chain_instance())
@settings(max_examples=50, deadline=None)
def test_compression_reaches_fixed_point(inst):
    tree, sched = inst
    rep = compress_idle_time(tree, sched)
    assert max_gap_slack(tree, rep.schedule) <= 1e-9


@given(chain_instance())
@settings(max_examples=50, deadline=None)
def test_times_nonnegative_and_not_increased(inst):
    tree, sched = inst
    rep = compress_idle_time(tree, sched)
    assert all(t >= -1e-12 for t in rep.schedule.times)
    assert rep.schedule.max_time() <= sched.max_time() + 1e-12


@given(chain_instance())
@settings(max_examples=40, deadline=None)
def test_arrow_cost_invariant(inst):
    """Lemma 3.11: arrow's cost unchanged (on tie-free instances exactly;
    with ties the executor's favourable-policy cost is compared)."""
    tree, sched = inst
    before = predict_arrow_run(tree, sched)
    rep = compress_idle_time(tree, sched)
    after = predict_arrow_run(tree, rep.schedule)
    if not (before.had_ties or after.had_ties):
        assert abs(after.arrow_cost - before.arrow_cost) < 1e-9


@given(chain_instance(max_requests=6))
@settings(max_examples=30, deadline=None)
def test_exact_opt_not_increased(inst):
    tree, sched = inst
    g = tree_graph(tree)
    before = opt_bounds(g, tree, sched, 1.0, exact_limit=10)
    rep = compress_idle_time(tree, sched)
    after = opt_bounds(g, tree, rep.schedule, 1.0, exact_limit=10)
    assert before.exact and after.exact
    assert after.upper <= before.upper + 1e-9
