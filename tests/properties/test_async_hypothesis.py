"""Property-based tests for asynchronous executions (§3.8)."""

from hypothesis import given, settings, strategies as st

from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.core.message import run_arrow
from repro.net.latency import UniformLatency
from repro.spanning.tree import SpanningTree
from small_models import tree_graph
from tree_oracles import hop_distance


@st.composite
def async_instance(draw, max_nodes=10, max_requests=8):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    parent = [0] * n
    for i in range(1, n):
        parent[i] = draw(st.integers(min_value=0, max_value=i - 1))
    tree = SpanningTree(parent, root=0)
    m = draw(st.integers(min_value=1, max_value=max_requests))
    pairs = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            float(draw(st.integers(min_value=0, max_value=20))),
        )
        for _ in range(m)
    ]
    lo = draw(st.sampled_from([0.1, 0.3, 0.6]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return tree, RequestSchedule(pairs), UniformLatency(lo, 1.0), seed


@given(async_instance())
@settings(max_examples=60, deadline=None)
def test_async_always_forms_total_order(inst):
    tree, sched, model, seed = inst
    res = run_arrow(tree_graph(tree), tree, sched, latency=model, seed=seed)
    assert len(verify_total_order(res)) == len(sched)


@given(async_instance())
@settings(max_examples=60, deadline=None)
def test_async_direct_path_and_latency_bound(inst):
    """Messages travel the direct tree path; delays are <= 1 per hop."""
    tree, sched, model, seed = inst
    res = run_arrow(tree_graph(tree), tree, sched, latency=model, seed=seed)
    for r in sched:
        rec = res.completions[r.rid]
        assert rec.hops == hop_distance(tree, r.node, rec.informed_node)
        assert res.latency(r.rid) <= tree.distance(r.node, rec.informed_node) + 1e-9
        assert res.latency(r.rid) >= 0.0


@given(async_instance())
@settings(max_examples=40, deadline=None)
def test_async_lemma_3_9_still_holds(inst):
    """Time-separated requests stay ordered even under async delays.

    If t_j - t_i > d_T(v_i, v_j) then even the slowest messages cannot
    reorder them: Lemma 3.9's proof only uses the NN characterisation,
    which Lemma 3.20 extends to asynchronous executions.
    """
    from lemma_oracles import check_lemma_3_9

    tree, sched, model, seed = inst
    res = run_arrow(tree_graph(tree), tree, sched, latency=model, seed=seed)
    assert check_lemma_3_9(tree, sched, res.order)
