"""Property-based tests: stabilisation from arbitrary corruption."""

from hypothesis import given, settings, strategies as st

from repro.core.message import ArrowNode, Network, Simulator
from repro.core.stabilize import find_violations_links, stabilize_links
from repro.spanning.tree import SpanningTree
from small_models import tree_graph
from tree_oracles import count_sinks, neighbors, sink_reached_from


@st.composite
def corrupted_configuration(draw, max_nodes=12):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    parent = [0] * n
    for i in range(1, n):
        parent[i] = draw(st.integers(min_value=0, max_value=i - 1))
    tree = SpanningTree(parent, root=0)
    net = Network(tree_graph(tree), Simulator())
    nodes = [ArrowNode(lambda *a: None) for _ in range(n)]
    net.register_all(nodes)
    # Arbitrary corruption: each pointer targets any tree neighbour or self.
    for nd in nodes:
        choices = neighbors(tree, nd.node_id) + [nd.node_id]
        nd.link = choices[draw(st.integers(0, len(choices) - 1))]
    return tree, [nd.link for nd in nodes]


@given(corrupted_configuration())
@settings(max_examples=80, deadline=None)
def test_one_pass_restores_legality(cfg):
    tree, link = cfg
    stabilize_links(link, tree)
    assert not find_violations_links(link, tree)
    assert count_sinks(link) == 1


@given(corrupted_configuration())
@settings(max_examples=80, deadline=None)
def test_all_chains_reach_the_unique_sink(cfg):
    tree, link = cfg
    stabilize_links(link, tree)
    sinks = {v for v, target in enumerate(link) if target == v}
    assert len(sinks) == 1
    sink = sinks.pop()
    for v in range(tree.num_nodes):
        assert sink_reached_from(link, v, tree.num_nodes) == sink


@given(corrupted_configuration())
@settings(max_examples=40, deadline=None)
def test_stabilize_is_idempotent(cfg):
    tree, link = cfg
    stabilize_links(link, tree)
    assert stabilize_links(link, tree) == 0
