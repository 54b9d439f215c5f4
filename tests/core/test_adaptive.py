"""Unit tests for the NTA/Ivy adaptive-pointer baseline."""

import math

from repro.core.fast_closed_loop import run_adaptive
from repro.core.queueing import verify_total_order
from repro.graphs import complete_graph
from repro.workloads.schedules import one_shot, poisson, sequential


def test_sequential_requests_form_total_order():
    g = complete_graph(8)
    sched = sequential([3, 5, 1, 7], gap=10.0)
    res = run_adaptive(g, 0, sched)
    assert verify_total_order(res) == [0, 1, 2, 3]


def test_sequential_requests_take_one_forward_each_after_warmup():
    """Path compression: once pointers are compressed, finds are short."""
    g = complete_graph(8)
    sched = sequential([3, 5, 1, 7, 2, 6], gap=10.0)
    res = run_adaptive(g, 0, sched)
    # First request chases root (1 forward); later ones find the tail in
    # one hop because everyone visited re-pointed at the newest requester.
    hops = [res.completions[r.rid].hops for r in sched]
    assert hops[0] == 1
    assert all(h <= 2 for h in hops)


def test_concurrent_one_shot_completes():
    g = complete_graph(12)
    res = run_adaptive(g, 0, one_shot(list(range(1, 12))))
    assert len(verify_total_order(res)) == 11


def test_poisson_workload_totally_ordered():
    g = complete_graph(20)
    sched = poisson(20, 150, rate=5.0, seed=2)
    res = run_adaptive(g, 0, sched)
    assert len(verify_total_order(res)) == 150


def test_mean_messages_logarithmic_scaling():
    """Ginat et al.: amortised Θ(log n) messages per op.

    We check the weaker empirical fact that the per-op message count grows
    much slower than n: going 8 -> 64 nodes (8x) should far less than
    double the per-op forwards under a uniform one-shot workload.
    """
    means = []
    for n in (8, 64):
        g = complete_graph(n)
        res = run_adaptive(g, 0, one_shot(list(range(1, n))))
        means.append(res.network_stats["messages_sent"] / (n - 1))
    assert means[1] <= means[0] * 2.0
    assert means[1] <= 2.0 * math.log2(64)


def test_local_repeat_request_is_free():
    g = complete_graph(6)
    sched = sequential([4, 4], gap=10.0)
    res = run_adaptive(g, 0, sched)
    assert res.completions[1].hops == 0
    assert res.latency(1) == 0.0
