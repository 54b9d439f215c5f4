"""Hand-traced arrow executions: the paper's Figures 1-6 scenarios.

These tests pin the protocol's step-by-step behaviour on tiny instances
where the expected pointer flips, queue orders and latencies can be
verified by hand against Section 2 of the paper.
"""

import pytest

from repro.core.message import ArrowNode, Network, Simulator, closed_loop_arrow, run_arrow
from repro.core.requests import ROOT_RID, RequestSchedule
from repro.core.queueing import verify_total_order
from repro.errors import ProtocolError
from repro.graphs.generators import path_graph
from repro.spanning.tree import SpanningTree
from small_models import rerooted


def chain_tree(n, root=0):
    if root == 0:
        return SpanningTree([max(0, i - 1) for i in range(n)], root=0)
    return rerooted(SpanningTree([max(0, i - 1) for i in range(n)], root=0), root)


def setup_line(n, root):
    """Arrow nodes on a path graph with pointers toward the root."""
    g = path_graph(n)
    tree = chain_tree(n, root)
    sim = Simulator()
    net = Network(g, sim)
    done = []
    nodes = [
        ArrowNode(lambda rid, pred, node, when, hops: done.append(
            (rid, pred, node, when, hops)))
        for _ in range(n)
    ]
    net.register_all(nodes)
    for nd in nodes:
        nd.init_pointers(tree)
    return sim, nodes, done


def test_initial_pointers_lead_to_root():
    _, nodes, _ = setup_line(5, root=2)
    assert nodes[2].link == 2          # the sink
    assert nodes[2].last_rid == ROOT_RID
    assert nodes[0].link == 1 and nodes[1].link == 2
    assert nodes[4].link == 3 and nodes[3].link == 2


def test_single_request_reverses_path_and_moves_sink():
    sim, nodes, done = setup_line(4, root=0)
    nodes[3].initiate(0)
    sim.run()
    # Completion at the old root after 3 hops / 3 time units.
    assert done == [(0, ROOT_RID, 0, 3.0, 3)]
    # Pointers now all lead to node 3 (the new sink).
    assert nodes[3].link == 3
    assert nodes[2].link == 3 and nodes[1].link == 2 and nodes[0].link == 1


def test_local_request_at_root_completes_instantly():
    sim, nodes, done = setup_line(3, root=0)
    nodes[0].initiate(0)
    sim.run()
    assert done == [(0, ROOT_RID, 0, 0.0, 0)]
    assert nodes[0].link == 0  # still the sink
    assert nodes[0].last_rid == 0


def test_two_sequential_requests_chain():
    sim, nodes, done = setup_line(4, root=0)
    nodes[2].initiate(0)
    sim.run()
    nodes[1].initiate(1)
    sim.run()
    assert done[0][:3] == (0, ROOT_RID, 0)
    # Second request finds its predecessor (request 0) at node 2.
    assert done[1][:3] == (1, 0, 2)
    assert done[1][4] == 1  # one hop from node 1 to node 2


def test_concurrent_requests_deflection_fig6():
    """Figure 6: root v in the middle; x and y request simultaneously.

    On the path x - u - v(root) - w - y with unit delays, both requests
    march toward v; one wins, the other is deflected toward the winner.
    Whichever wins, both are queued and the total order is consistent.
    """
    # nodes: 0=x, 1=u, 2=v(root), 3=w, 4=y
    g = path_graph(5)
    tree = chain_tree(5, root=2)
    sched = RequestSchedule([(0, 0.0), (4, 0.0)])
    res = run_arrow(g, tree, sched)
    order = verify_total_order(res)
    assert sorted(order) == [0, 1]
    first, second = order
    # The winner pays distance to the root (2); the loser is deflected and
    # pays the distance to the winner's node (4).
    assert res.latency(first) == 2.0
    assert res.latency(second) == 4.0


def test_same_node_rerequest_is_local_after_completion():
    sim, nodes, done = setup_line(4, root=0)
    nodes[3].initiate(0)
    sim.run()
    nodes[3].initiate(1)
    sim.run()
    assert done[1] == (1, 0, 3, 3.0, 0)  # local find, zero hops


def test_request_while_own_message_in_flight():
    """A node may issue again before its previous request completed."""
    sim, nodes, done = setup_line(5, root=0)
    nodes[4].initiate(0)
    sim.call_at(1.0, nodes[4].initiate, 1)
    sim.run()
    rids = sorted(rec[0] for rec in done)
    assert rids == [0, 1]
    # Request 1 is queued directly behind request 0, locally at node 4.
    rec1 = next(r for r in done if r[0] == 1)
    assert rec1[1] == 0 and rec1[2] == 4 and rec1[4] == 0


def test_unknown_message_kind_raises():
    sim, nodes, _ = setup_line(2, root=0)
    from repro.core.message import Message

    with pytest.raises(ProtocolError):
        nodes[0].on_message(Message("bogus", 1, 0))


def test_queue_reply_without_app_handler_raises():
    """Only the closed loop asks for replies, and it always installs a
    handler: a stray ``queue_reply`` is a protocol error, not dropped."""
    sim, nodes, _ = setup_line(2, root=0)
    from repro.core.message import Message

    assert nodes[0].app_handler is None
    with pytest.raises(ProtocolError, match="queue_reply"):
        nodes[0].on_message(Message("queue_reply", 1, 0, {"rid": 0, "predecessor": -1}))


def test_app_handler_receives_non_queue_messages():
    sim, nodes, _ = setup_line(2, root=0)
    from repro.core.message import Message

    got = []
    nodes[0].app_handler = got.append
    nodes[0].on_message(Message("queue_reply", 1, 0))
    assert len(got) == 1


def test_initiate_takes_only_a_rid_and_completes_at_sim_now():
    """The initiation contract: ``initiate(rid)``, issue time = sim clock.

    The old signature accepted (and silently ignored) an ``origin_time``
    argument; issue times come from the schedule / driver exclusively, so
    the parameter was dropped.  Pin both halves of the contract: the
    signature rejects a second positional argument, and a local find
    completes exactly at the simulation time of the initiation event.
    """
    sim, nodes, done = setup_line(3, root=0)
    with pytest.raises(TypeError):
        nodes[0].initiate(0, 0.0)
    sim.call_at(2.5, nodes[0].initiate, 0)
    sim.run()
    assert done == [(0, ROOT_RID, 0, 2.5, 0)]


def test_notify_origin_sends_reply():
    """The closed loop's nodes acknowledge every request with one routed
    ``queue_reply`` from the sink to the origin (to itself after a local
    find)."""
    res = closed_loop_arrow(path_graph(3), chain_tree(3, root=0), requests_per_proc=1)
    assert res.hops == [0, 1, 1]
    assert res.messages_sent == sum(res.hops) + res.completions == 5
    # Both remote requests complete after one hop; the reply takes one more.
    assert res.ack_times == [0.0, 2.0, 2.0]
