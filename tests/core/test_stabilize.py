"""Unit tests for the self-stabilisation extension."""

import pytest

from repro.core.message import ArrowNode, Network, Simulator
from repro.core.stabilize import find_violations_links, stabilize_links
from repro.graphs import random_geometric_graph
from repro.spanning import bfs_tree
from repro.spanning.tree import SpanningTree
from small_models import tree_graph
from tree_oracles import count_sinks, neighbors, sink_reached_from


def make_nodes(tree, graph=None):
    g = graph if graph is not None else tree_graph(tree)
    net = Network(g, Simulator())
    nodes = [ArrowNode(lambda *a: None) for _ in range(tree.num_nodes)]
    net.register_all(nodes)
    for nd in nodes:
        nd.init_pointers(tree)
    return net, nodes


def chain_tree(n):
    return SpanningTree([max(0, i - 1) for i in range(n)], root=0)


def links_of(nodes):
    return [nd.link for nd in nodes]


def is_legal(link, tree):
    return not find_violations_links(link, tree)


def test_initial_configuration_is_legal():
    tree = chain_tree(6)
    _, nodes = make_nodes(tree)
    link = links_of(nodes)
    assert is_legal(link, tree)
    assert count_sinks(link) == 1
    assert sink_reached_from(link, 5, 6) == 0


def test_two_cycle_detected_as_double():
    tree = chain_tree(4)
    _, nodes = make_nodes(tree)
    nodes[0].link = 1  # now 0 -> 1 and 1 -> 0
    v = find_violations_links(links_of(nodes), tree)
    assert any(x.kind == "double" for x in v)
    assert sink_reached_from(links_of(nodes), 3, 4) is None  # walk enters the 2-cycle


def test_abandoned_edge_detected_as_none():
    tree = chain_tree(4)
    _, nodes = make_nodes(tree)
    nodes[3].link = 3  # second sink; edge (3,2) crossed by nobody
    v = find_violations_links(links_of(nodes), tree)
    assert any(x.kind == "none" for x in v)
    assert count_sinks(links_of(nodes)) == 2


def test_stabilize_fixes_double():
    tree = chain_tree(4)
    _, nodes = make_nodes(tree)
    nodes[0].link = 1
    link = links_of(nodes)
    fixes = stabilize_links(link, tree)
    assert fixes >= 1
    assert is_legal(link, tree)
    assert count_sinks(link) == 1


def test_stabilize_fixes_multiple_sinks():
    tree = chain_tree(6)
    _, nodes = make_nodes(tree)
    nodes[3].link = 3
    nodes[5].link = 5
    link = links_of(nodes)
    stabilize_links(link, tree)
    assert is_legal(link, tree)
    assert count_sinks(link) == 1
    sink = next(v for v, target in enumerate(link) if target == v)
    for v in range(6):
        assert sink_reached_from(link, v, 6) == sink


def test_stabilize_noop_on_legal_configuration():
    tree = chain_tree(8)
    _, nodes = make_nodes(tree)
    assert stabilize_links(links_of(nodes), tree) == 0


def test_protocol_works_after_stabilization():
    g = random_geometric_graph(15, 0.4, seed=2)
    tree = bfs_tree(g, 0)
    net, nodes = make_nodes(tree, g)
    # Corrupt arbitrarily: every node points at its first tree neighbour.
    for nd in nodes:
        nd.link = neighbors(tree, nd.node_id)[0]
    link = links_of(nodes)
    stabilize_links(link, tree)
    assert is_legal(link, tree)
    for nd, target in zip(nodes, link):  # write the repair back, as faults does
        nd.link = target
    # Issue requests from every node; all must complete into one order.
    done = []
    for nd in nodes:
        nd._on_complete = lambda rid, pred, node, when, hops: done.append(rid)
    for i, nd in enumerate(nodes):
        net.sim.call_at(float(i), nd.initiate, i)
    net.sim.run()
    assert sorted(done) == list(range(15))


@pytest.mark.parametrize("seed", range(5))
def test_stabilize_from_random_corruption(seed):
    from repro.sim.rng import spawn_rng

    g = random_geometric_graph(20, 0.35, seed=seed)
    tree = bfs_tree(g, 0)
    _, nodes = make_nodes(tree, g)
    rng = spawn_rng(seed, "corrupt")
    for nd in nodes:
        choices = neighbors(tree, nd.node_id) + [nd.node_id]
        nd.link = choices[rng.integers(len(choices))]
    link = links_of(nodes)
    stabilize_links(link, tree)
    assert is_legal(link, tree)
    assert count_sinks(link) == 1


# ----------------------------------------------------------------------
# stabilisation as the live crash-repair step (driven by repro.faults)
# ----------------------------------------------------------------------
def test_edge_rule_agrees_with_pointer_walk_oracle():
    """One crossing per edge (the local rule) <=> one sink that every
    pointer walk reaches (the global reading), before and after repair."""
    from repro.sim.rng import spawn_rng

    g = random_geometric_graph(18, 0.4, seed=11)
    tree = bfs_tree(g, 0)
    n = tree.num_nodes
    rng = spawn_rng(11, "corrupt-links")
    link = []
    for v in range(n):
        choices = neighbors(tree, v) + [v]
        link.append(choices[rng.integers(len(choices))])

    def walks_agree(link):
        reached = {sink_reached_from(link, v, n) for v in range(n)}
        return count_sinks(link) == 1 and None not in reached and len(reached) == 1

    assert is_legal(link, tree) == walks_agree(link)
    assert find_violations_links(link, tree)  # the corruption is real
    stabilize_links(link, tree)
    assert is_legal(link, tree) and walks_agree(link)


@pytest.mark.parametrize("engine", ["fast", "message"])
def test_repair_after_crash_per_engine(engine):
    """A crash mid-run degrades the tree; the engines must route the
    repair through the stabilisation pass and finish every surviving
    request — stabilize is the live repair step, not a standalone demo."""
    from repro.faults import run_arrow_faulted
    from repro.graphs import complete_graph
    from repro.workloads.schedules import poisson

    graph = complete_graph(10)
    tree = bfs_tree(graph, 0)
    schedule = poisson(10, 60, 4.0, seed=4)
    result, report = run_arrow_faulted(
        graph, tree, schedule, "crash@3.0:2,crash@6.0:5",
        engine=engine, seed=5, service_time=0.1,
    )
    assert report.repairs_run >= 1
    assert report.corrections_applied >= 1
    assert report.final_violations == 0
    assert report.time_to_recovery > 0.0
    assert len(result.completions) + report.requests_lost == len(schedule)
