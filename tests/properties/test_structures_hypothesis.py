"""Property-based tests for the substrate data structures."""


from hypothesis import given, settings, strategies as st

from repro.graphs.shortest_paths import bfs_distances
from repro.core.message import Simulator
from repro.spanning.tree import SpanningTree
from small_models import rerooted, tree_graph
from tree_oracles import hop_distance, tree_path


@st.composite
def parent_array(draw, max_nodes=14):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parent = [0] * n
    for i in range(1, n):
        parent[i] = draw(st.integers(min_value=0, max_value=i - 1))
    return parent


@given(parent_array())
@settings(max_examples=80, deadline=None)
def test_lca_distance_matches_bfs(parent):
    tree = SpanningTree(parent, root=0)
    g = tree_graph(tree)
    n = len(parent)
    for src in range(0, n, max(1, n // 3)):
        oracle = bfs_distances(g, src)
        for v in range(n):
            assert hop_distance(tree, src, v) == oracle[v]


@given(parent_array())
@settings(max_examples=60, deadline=None)
def test_tree_path_is_simple_and_adjacent(parent):
    tree = SpanningTree(parent, root=0)
    n = len(parent)
    u, v = 0, n - 1
    path = tree_path(tree, u, v)
    assert path[0] == u and path[-1] == v
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert tree.parent[a] == b or tree.parent[b] == a


@given(
    st.lists(
        st.one_of(
            st.integers(0, 4).map(float),  # a small lattice: many ties
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=80, deadline=None)
def test_simulator_fires_in_time_then_scheduling_order(times):
    sim = Simulator()
    fired = []
    for i, t in enumerate(times):
        sim.call_at(t, fired.append, (t, i))
    sim.run()
    assert fired == sorted((t, i) for i, t in enumerate(times))


@given(parent_array(max_nodes=12))
@settings(max_examples=40, deadline=None)
def test_reroot_preserves_tree_metric(parent):
    tree = SpanningTree(parent, root=0)
    n = len(parent)
    other = rerooted(tree, n - 1)
    for u in range(n):
        for v in range(n):
            assert hop_distance(tree, u, v) == hop_distance(other, u, v)
