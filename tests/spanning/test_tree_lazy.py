"""``SpanningTree`` builds ``children``, ``depth`` and ``wdepth`` on first read.

Construction checks the parent array by pointer doubling and keeps only
``parent``, ``root`` and ``edge_weight``.  These tests hold the lazy tree
to the eager one it replaced (``tree_oracles.eager_fields``, the
constructor's old BFS kept verbatim): the same fields and distances on
every valid array, the same ``TreeError`` text on every malformed one,
and no run that reads only ``parent`` builds the rest.
"""

import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_arrow_fast
from repro.errors import TreeError
from repro.graphs import complete_graph, grid_graph
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.spanning.tree import SpanningTree
from repro.sweep import GraphSpec, ScheduleSpec, SweepSpec, iter_sweep
from repro.workloads.schedules import one_shot
from tree_oracles import eager_fields, hop_distance

LAZY = ("_children", "_depth", "_wdepth")


def unbuilt(tree):
    return all(getattr(tree, slot) is None for slot in LAZY)


def naive_distances(parent, depth, wdepth, u, v):
    """``(d_T, hops)`` by walking parents from the eager depths."""
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return wdepth[u] + wdepth[v] - 2.0 * wdepth[a], depth[u] + depth[v] - 2 * depth[a]


@st.composite
def valid_trees(draw, max_nodes=40):
    """A parent array over shuffled labels, any root: random attachment,
    a path, a star or a broom (attach within the last three), with unit,
    lattice or arbitrary positive weights."""
    n = draw(st.integers(1, max_nodes))
    shape = draw(st.sampled_from(["random", "path", "star", "broom"]))
    order = draw(st.permutations(range(n)))
    parent = [0] * n
    parent[order[0]] = order[0]
    for i in range(1, n):
        if shape == "path":
            j = i - 1
        elif shape == "star":
            j = 0
        else:
            j = draw(st.integers(max(0, i - 3) if shape == "broom" else 0, i - 1))
        parent[order[i]] = order[j]
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.25]), min_size=n, max_size=n),
            st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n),
        )
    )
    first = draw(st.sampled_from(sorted(FIRST_QUERY)))
    return parent, order[0], weights, first


#: What a first reader may ask; any of them builds all three fields.
FIRST_QUERY = {
    "children": lambda t: t.children,
    "depth": lambda t: t.depth,
    "wdepth": lambda t: t.wdepth,
    "distance": lambda t: t.distance(0, t.num_nodes - 1),
    "hop_distance": lambda t: hop_distance(t, t.num_nodes - 1, 0),
    "distances_from": lambda t: t.distances_from(t.num_nodes - 1),
}


def check_against_eager(parent, root, weights, first):
    children, depth, wdepth = eager_fields(parent, root, weights)
    tree = SpanningTree(parent, root, weights)
    assert unbuilt(tree)
    n = len(parent)
    FIRST_QUERY[first](tree)
    assert not any(getattr(tree, slot) is None for slot in LAZY)
    assert tree.children == children
    assert tree.depth == depth
    assert tree.wdepth == wdepth
    for u in range(n):
        row = tree.distances_from(u)
        for v in range(n):
            want, hops = naive_distances(parent, depth, wdepth, u, v)
            assert tree.distance(u, v) == want
            assert hop_distance(tree, u, v) == hops
            assert row[v] == want


@given(valid_trees())
@settings(max_examples=150, deadline=None)
def test_lazy_fields_and_distances_equal_the_eager_bfs(case):
    check_against_eager(*case)


@pytest.mark.parametrize("n", range(1, 70))
def test_every_path_length_converges(n):
    """Pointer doubling's round bound: a path of every length up to 69
    (each power of two and its neighbours), rooted at one end and in the
    middle, builds and reads the eager depths."""
    for root in {0, n // 2}:
        parent = [v - 1 if v > root else v + 1 if v < root else v for v in range(n)]
        tree = SpanningTree(parent, root)
        assert tree.depth == eager_fields(parent, root)[1]


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-2, n + 1), min_size=n, max_size=n),
            st.integers(-1, n),
        )
    )
)
@settings(max_examples=400, deadline=None)
def test_any_parent_array_is_refused_with_the_eager_text(case):
    parent, root = case
    try:
        want = eager_fields(parent, root)
    except TreeError as exc:
        with pytest.raises(TreeError, match=f"^{re.escape(str(exc))}$"):
            SpanningTree(parent, root)
    else:
        tree = SpanningTree(parent, root)
        assert (tree.children, tree.depth, tree.wdepth) == want


MALFORMED = [
    ("root-high", [0, 0], 2, None, "root 2 out of range [0, 2)"),
    ("root-negative", [0, 0], -1, None, "root -1 out of range [0, 2)"),
    ("root-not-self", [1, 1, 1], 0, None, "parent[root] must equal root"),
    ("parent-high", [0, 5, 0], 0, None, "parent[1]=5 out of range"),
    ("parent-negative", [0, 0, -1], 0, None, "parent[2]=-1 out of range"),
    ("self-parent", [0, 1, 0], 0, None, "non-root node 1 is its own parent"),
    ("two-cycle", [0, 2, 1], 0, None, "parent array reaches only 1/3 nodes (cycle or forest)"),
    ("long-cycle", [0, 0, 3, 4, 5, 6, 2, 6], 0, None,
     "parent array reaches only 2/8 nodes (cycle or forest)"),
    ("forest", [0, 0, 3, 3, 3], 0, None, "non-root node 3 is its own parent"),
    ("forest-cycle-rooted", [0, 0, 3, 2, 2], 0, None,
     "parent array reaches only 2/5 nodes (cycle or forest)"),
    ("weight", [0, 0, 1], 0, [1.0, 0.0, 1.0],
     "edge weight of (1, 0) must be positive and finite, got 0.0"),
]


@pytest.mark.parametrize(
    "parent, root, weights, text", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_array_text_is_pinned(parent, root, weights, text):
    for build in (SpanningTree, eager_fields):
        with pytest.raises(TreeError) as info:
            build(parent, root, weights)
        assert str(info.value) == text


# ----------------------------------------------------------------------
# runs read parent only
# ----------------------------------------------------------------------
def test_one_shot_fast_run_leaves_the_tree_unbuilt():
    graph = grid_graph(6, 7)
    tree = bfs_tree(graph, 5)
    run_arrow_fast(graph, tree, one_shot(list(range(graph.num_nodes))))
    assert unbuilt(tree)


def test_closed_loop_fast_run_leaves_the_tree_unbuilt():
    graph = complete_graph(16)
    tree = balanced_binary_overlay(graph, 0)
    closed_loop_arrow_fast(graph, tree, requests_per_proc=4, think_time=0.5)
    assert unbuilt(tree)


def test_monitored_open_loop_cell_leaves_its_tree_unbuilt(monkeypatch):
    built = []
    init = SpanningTree.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SpanningTree, "__init__", recording_init)
    spec = SweepSpec(
        name="lazy-monitored",
        graphs=(GraphSpec.of("complete", n=12),),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("poisson", per_node=10, rate_per_node=0.5),),
        seeds=(3,),
        monitors=True,
    )
    rows = list(iter_sweep(spec))
    assert len(rows) == 1 and built
    assert all(map(unbuilt, built))


def test_path_tree_construction_holds_parent_and_weights_only():
    """A 2^16-node path holds two n-entry lists (about 1 MB); the eager
    ``children`` / ``depth`` / ``wdepth`` held about 14 MB."""
    n = 1 << 16
    parent = [max(0, v - 1) for v in range(n)]
    tracemalloc.start()
    try:
        tree = SpanningTree(parent, 0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unbuilt(tree)
    assert held < 2 * 2**20, f"{held / 2**20:.2f} MB held after construction"
