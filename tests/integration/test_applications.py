"""Integration: the applications the paper motivates (§1).

Distributed queuing's point is what you build on it: mutual exclusion for
a mobile object, totally ordered multicast, distributed counting.  These
tests implement each application over the public API and verify its
correctness property end to end.
"""

from repro.core.queueing import verify_total_order
from repro.core.message import run_arrow
from repro.graphs import complete_graph, grid_graph
from repro.net.latency import UniformLatency
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.workloads.schedules import poisson


def test_mutual_exclusion_token_passing():
    """Pass a token down the queue; intervals must never overlap.

    The holder of request r releases after a fixed critical-section time;
    the object travels d_G to the successor's issuer.  Exclusion holds
    because the queue hands the object over only after release.
    """
    graph = grid_graph(4, 4)
    tree = bfs_tree(graph, 0)
    sched = poisson(16, 40, rate=2.0, seed=3)
    res = run_arrow(graph, tree, sched)
    order = verify_total_order(res)

    cs_time = 0.5
    intervals = []
    # The token starts at the root, already released at t=0.
    release_time = 0.0
    holder = tree.root
    from repro.graphs.shortest_paths import dijkstra

    dist_cache = {}

    def dg(u, v):
        if u not in dist_cache:
            dist_cache[u] = dijkstra(graph, u)[0]
        return dist_cache[u][v]

    for rid in order:
        req = res.schedule.by_rid(rid)
        # Earliest possible acquisition: the object must have been released
        # and must travel from the previous holder; also the request must
        # have been issued.
        acquire = max(req.time, release_time + dg(holder, req.node))
        release = acquire + cs_time
        intervals.append((acquire, release))
        holder = req.node
        release_time = release

    for (a1, r1), (a2, r2) in zip(intervals, intervals[1:]):
        assert r1 <= a2 + 1e-12, "critical sections overlap"


def test_totally_ordered_multicast_agreement():
    """Every node delivers multicasts in the queue order (§1: multicast).

    Each multicast is a queuing request; the sequence number is the
    position in the queue order.  All replicas applying messages by
    sequence number end in the same state.
    """
    graph = complete_graph(12)
    tree = balanced_binary_overlay(graph, 0)
    sched = poisson(12, 50, rate=5.0, seed=9)
    res = run_arrow(graph, tree, sched, latency=UniformLatency(0.3, 1.0), seed=1)
    order = verify_total_order(res)
    seqno = {rid: i for i, rid in enumerate(order)}

    # Replay at every replica: apply (seqno, payload) sorted by seqno.
    def replica_state():
        log = sorted((seqno[r.rid], r.node) for r in sched)
        state = 0
        for s, origin in log:
            state = state * 31 + (s + 1) * (origin + 7)
        return state

    states = {replica_state() for _ in range(5)}
    assert len(states) == 1


def test_distributed_counter_uniqueness():
    """Fetch&increment via the queue: every request gets a unique value."""
    graph = complete_graph(10)
    tree = balanced_binary_overlay(graph, 0)
    sched = poisson(10, 60, rate=10.0, seed=4)
    res = run_arrow(graph, tree, sched)
    order = verify_total_order(res)
    values = {rid: i for i, rid in enumerate(order)}
    assert sorted(values.values()) == list(range(60))


def test_queue_chaining_across_multiple_rounds():
    """Three consecutive request batches extend one global order."""
    graph = grid_graph(3, 4)
    tree = bfs_tree(graph, 0)
    batches = [poisson(12, 15, rate=3.0, seed=s) for s in range(3)]
    pairs = []
    offset = 0.0
    for b in batches:
        pairs.extend((r.node, r.time + offset) for r in b)
        offset += b.max_time() + 10.0
    from repro.core.requests import RequestSchedule

    merged = RequestSchedule(pairs)
    res = run_arrow(graph, tree, merged)
    assert len(verify_total_order(res)) == 45
