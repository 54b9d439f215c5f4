"""Tree queries on every labelled tree with n <= 6, plus the set-up checks.

``SpanningTree`` builds its binary-lifting table on the first distance
query; the exhaustive comparison against a naive parent walk covers the
lazily built table on every labelled tree (all Prüfer sequences, from
the small-model corpus in ``tests/small_models.py``) rooted at every
node, and checks that ``distances_from``, the array form the analysis
layer reads, equals the scalar ``distance`` exactly.  The rest pins the validations the set-up chain keeps: weights,
node ids, tree links that must be graph edges.
"""

import math

import pytest

from repro.core.fast_arrow import run_arrow_fast
from repro.core.requests import RequestSchedule
from repro.core.runner import run_arrow
from repro.errors import GraphError, TreeError
from repro.faults import run_arrow_faulted
from repro.graphs import dijkstra
from repro.graphs.generators import path_graph
from repro.spanning import bfs_tree
from repro.spanning.tree import SpanningTree
from repro.sweep import GraphSpec, ScheduleSpec, SweepSpec, run_sweep
from small_models import labelled_trees
from tree_oracles import hop_distance, tree_path


def ancestors(tree, u):
    out = [u]
    while out[-1] != tree.root:
        out.append(tree.parent[out[-1]])
    return out


def naive_path(up_u, up_v):
    """Tree path from ``up_u[0]`` to ``up_v[0]`` given their ancestor chains."""
    a = next(x for x in up_u if x in up_v)
    return up_u[: up_u.index(a) + 1] + up_v[: up_v.index(a)][::-1]


def test_enumeration_counts_cayley():
    for n in range(1, 7):
        trees = [frozenset(map(frozenset, e)) for e in labelled_trees(n)]
        assert len(trees) == len(set(trees)) == n ** max(n - 2, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_queries_match_naive_parent_walk_on_every_labelled_tree(n):
    for edges in labelled_trees(n):
        weighted = [(u, v, 0.5 + (3 * u + 5 * v) % 4) for u, v in edges]
        for root in range(n):
            tree = SpanningTree.from_edges(n, weighted, root)
            assert tree._up is None
            chains = [ancestors(tree, u) for u in range(n)]
            for u in range(n):
                row = tree.distances_from(u)
                for v in range(n):
                    path = naive_path(chains[u], chains[v])
                    a = min(path, key=tree.depth.__getitem__)
                    assert tree.lca(u, v) == a
                    assert tree_path(tree, u, v) == path
                    assert hop_distance(tree, u, v) == len(path) - 1
                    assert tree.distance(u, v) == pytest.approx(
                        math.fsum(
                            tree.edge_weight[x if tree.parent[x] == y else y]
                            for x, y in zip(path, path[1:])
                        )
                    )
                    assert row[v] == tree.distance(u, v)


def test_lifting_table_is_built_by_first_query_only():
    tree = SpanningTree([max(0, i - 1) for i in range(9)], root=0)
    assert tree._up is None
    assert tree.distance(8, 3) == 5.0
    up = tree._up
    assert up is not None and up[0] == tree.parent
    tree.lca(2, 7)
    tree.distances_from(4)
    assert tree._up is up


# ----------------------------------------------------------------------
# checks the tree keeps
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "parent,root,match",
    [
        ([0, 0, 5], 0, "out of range"),
        ([0, 1, 0], 0, "its own parent"),
        ([0, 2, 1], 0, "reaches only 1/3"),
        ([1, 0, 0], 0, "parent\\[root\\] must equal root"),
        ([0, 0], 2, "root 2 out of range"),
    ],
)
def test_parent_array_checks_stay(parent, root, match):
    with pytest.raises(TreeError, match=match):
        SpanningTree(parent, root)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.0, -3.0])
def test_non_root_link_weight_must_be_finite_and_positive(w):
    with pytest.raises(TreeError, match=r"edge weight of \(1, 0\)"):
        SpanningTree([0, 0, 1], 0, [1.0, w, 1.0])


def test_negative_link_weight_no_longer_yields_negative_distance():
    with pytest.raises(TreeError):
        SpanningTree([0, 0, 1], 0, [1, -3, 1])


def test_root_weight_is_ignored():
    tree = SpanningTree([0, 0, 1], 0, [math.nan, 2.0, 1.0])
    assert tree.edge_weight == [0.0, 2.0, 1.0]
    assert tree.distance(0, 2) == 3.0


@pytest.mark.parametrize(
    "edges,match",
    [
        ([(0, 1), (-1, 0)], r"edge \(-1, 0\)"),
        ([(0, 1), (0, 5)], r"edge \(0, 5\)"),
        ([(0, 1), (1, 2, 1.0, 9)], r"must be \(u, v\) or \(u, v, weight\)"),
    ],
)
def test_from_edges_rejects_bad_edges(edges, match):
    with pytest.raises(TreeError, match=match):
        SpanningTree.from_edges(3, edges)


@pytest.mark.parametrize("source", [-1, 4])
def test_out_of_range_source_raises_graph_error(source):
    g = path_graph(4)
    with pytest.raises(GraphError, match="out of range"):
        dijkstra(g, source)
    with pytest.raises(GraphError, match="out of range"):
        bfs_tree(g, source)


MISSING_LINK = r"tree edge \(2, 0\) is not an edge of the graph"


def _star_on_path():
    return path_graph(4), SpanningTree([0, 0, 0, 0], root=0)


def test_engine_rejects_tree_link_missing_from_graph():
    g, star = _star_on_path()
    with pytest.raises(TreeError, match=MISSING_LINK):
        run_arrow_fast(g, star, RequestSchedule([(1, 0.0)]))


def test_engine_rejects_tree_larger_than_graph():
    with pytest.raises(GraphError, match="out of range"):
        run_arrow_fast(
            path_graph(3),
            SpanningTree([0, 0, 1, 2], root=0),
            RequestSchedule([(1, 0.0)]),
        )


@pytest.mark.parametrize("plan", ["", "crash@5.0:3"])
@pytest.mark.parametrize("engine", ["fast", "message"])
def test_runners_reject_tree_link_missing_from_graph(engine, plan):
    g, star = _star_on_path()
    schedule = RequestSchedule([(1, 0.0)])
    with pytest.raises(TreeError, match=MISSING_LINK):
        run_arrow(g, star, schedule)
    with pytest.raises(TreeError, match=MISSING_LINK):
        run_arrow_faulted(g, star, schedule, plan, engine=engine)


NAN_K6 = GraphSpec.of("complete", n=6, weight=math.nan)


@pytest.mark.parametrize(
    "graph,tree",
    [
        (NAN_K6, "binary"),
        (NAN_K6, "random"),
        (GraphSpec.of("cycle", n=5, weight=math.nan), "mst"),
        (NAN_K6, "star"),
        (NAN_K6, "mst"),
        (NAN_K6, "bfs"),
        (GraphSpec.of("path", n=5, weight=math.nan), "bfs"),
    ],
)
def test_nan_weight_sweep_fails_with_the_weight_error(tmp_path, graph, tree):
    spec = SweepSpec(
        name="nan",
        graphs=(graph,),
        trees=(tree,),
        schedules=(ScheduleSpec.of("one_shot"),),
        seeds=(0,),
    )
    out = tmp_path / "rows.jsonl"
    with pytest.raises(GraphError, match="positive and finite, got nan"):
        run_sweep(spec, str(out))
    assert not out.exists() or out.read_text() == ""
