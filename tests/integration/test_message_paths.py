"""Trace-level verification of message routes.

Stronger than the latency/hops checks: reconstruct every queue message's
actual route from the network trace and compare it, node by node, with
the unique tree path from the request's origin to its predecessor's
issuer — the direct-path theorem of [4] at full resolution.  Also replays
the paper's Figures 1–5 walkthrough (two concurrent requests, one
deflected) against the exact expected pointer states.
"""

from collections import defaultdict

from repro.core.arrow import ArrowNode
from repro.core.requests import ROOT_RID
from repro.core.runner import run_arrow
from repro.core.queueing import verify_total_order
from repro.graphs import grid_graph
from repro.graphs.generators import path_graph
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.spanning import bfs_tree
from repro.spanning.tree import SpanningTree
from repro.workloads.schedules import random_times
from small_models import rerooted
from tree_oracles import sink_reached_from, tree_path


def test_queue_message_routes_follow_tree_paths():
    """Each request's hop sequence equals the tree path to its predecessor."""
    graph = grid_graph(4, 5)
    tree = bfs_tree(graph, 0)
    sched = random_times(20, 25, horizon=15.0, seed=3)

    # Every queue-message link traversal is one ("send", rid, src, dst,
    # time) tuple on the on_event stream.
    events = []
    res = run_arrow(graph, tree, sched, on_event=events.extend)
    verify_total_order(res)

    # Expected: each request's sends, in order, are the edges of the
    # direct tree path toward the informed node (and so the multiset of
    # traversed directed edges is the union of those paths).
    routes = defaultdict(list)
    for kind, rid, *rest in events:
        if kind == "send":
            src, dst, _when = rest
            routes[rid].append((src, dst))
    sends = 0
    for rid, rec in res.completions.items():
        path = tree_path(tree, sched.by_rid(rid).node, rec.informed_node)
        assert routes[rid] == list(zip(path, path[1:]))
        sends += len(path) - 1
    # on_event sees queue messages only, and all of them.
    assert sends == res.network_stats["link_messages"]


def test_paper_figures_1_to_5_walkthrough():
    """The running example of Section 2: two requests, one deflection.

    Tree (a path, relabelled): z - v - y - x - u - w with initial sink x
    (arrows lead to x).  v issues m1 at t=0; w issues m2 at t=0.  m1
    reaches x first (distance 2 vs 3... here both move, and whoever wins
    at the meeting point deflects the other toward its origin — the
    figures show m2 deflected towards v and queued behind m1.
    """
    # Node ids: z=0, v=1, y=2, x=3, u=4, w=5 along a path.
    g = path_graph(6)
    tree = rerooted(SpanningTree([0, 0, 1, 2, 3, 4], root=0), 3)
    sim = Simulator()
    net = Network(g, sim)
    done = []
    nodes = [
        ArrowNode(lambda rid, pred, node, when, hops: done.append((rid, pred, node)))
        for _ in range(6)
    ]
    net.register_all(nodes)
    for nd in nodes:
        nd.init_pointers(tree)
    assert nodes[3].link == 3  # x is the initial sink (Fig. 1)

    sim.call_at(0.0, nodes[1].initiate, 0)  # m1 from v (Fig. 2)
    sim.call_at(0.0, nodes[5].initiate, 1)  # m2 from w (Fig. 3)
    sim.run()

    # m1 (distance 2 to x) wins the race; m2 (distance 2... w=5 -> u=4 ->
    # x=3) ties at x; processing order resolves it: one is queued behind
    # the root request, the other behind the winner (Figs. 4-5).
    assert sorted(r[0] for r in done) == [0, 1]
    preds = {rid: pred for rid, pred, _ in done}
    winner = next(rid for rid, pred in preds.items() if pred == ROOT_RID)
    loser = 1 - winner
    assert preds[loser] == winner
    # Final state: the loser's origin is the unique sink (new tail).
    loser_origin = 1 if loser == 0 else 5
    assert nodes[loser_origin].link == loser_origin
    assert sum(1 for nd in nodes if nd.link == nd.node_id) == 1
    # Every pointer chain now leads to the new tail (Fig. 5's invariant).
    link = [nd.link for nd in nodes]
    for v in range(6):
        assert sink_reached_from(link, v, 6) == loser_origin
