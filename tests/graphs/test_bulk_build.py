"""Bulk graph construction and reads: ``Graph.from_columns`` / ``edge_weights``.

Every generator builds through ``from_columns``; the adjacency rows must be
identical — same keys, weights *and insertion order* — to what the
``add_edge`` loops below build, because row order decides Dijkstra's ties
and Wilson's random walk.
"""

import math

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.sim.rng import spawn_rng

# ----------------------------------------------------------------------
# add_edge reference builders, one per generator
# ----------------------------------------------------------------------


def ref_path(n, w):
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, w)
    return g


def ref_cycle(n, w):
    g = ref_path(n, w)
    g.add_edge(n - 1, 0, w)
    return g


def ref_star(n, w):
    g = Graph(n)
    for i in range(1, n):
        g.add_edge(0, i, w)
    return g


def ref_complete(n, w):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, w)
    return g


def ref_binary_tree(n, w):
    g = Graph(n)
    for i in range(1, n):
        g.add_edge(i, (i - 1) // 2, w)
    return g


def ref_grid(rows, cols, w):
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1, w)
            if r + 1 < rows:
                g.add_edge(u, u + cols, w)
    return g


def ref_torus(rows, cols, w):
    g = ref_grid(rows, cols, w)
    for r in range(rows):
        g.add_edge(r * cols, r * cols + cols - 1, w)
    for c in range(cols):
        g.add_edge(c, (rows - 1) * cols + c, w)
    return g


def ref_hypercube(dim, w):
    n = 1 << dim
    g = Graph(n)
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if v > u:
                g.add_edge(u, v, w)
    return g


def ref_caterpillar(spine, legs, w):
    g = Graph(spine * (1 + legs))
    for i in range(spine - 1):
        g.add_edge(i, i + 1, w)
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            g.add_edge(i, nxt, w)
            nxt += 1
    return g


def ref_lollipop(clique, tail, w):
    g = Graph(clique + tail)
    for u in range(clique):
        for v in range(u + 1, clique):
            g.add_edge(u, v, w)
    prev = 0
    for i in range(clique, clique + tail):
        g.add_edge(prev, i, w)
        prev = i
    return g


def ref_gnp(n, p, seed):
    from repro.graphs.shortest_paths import is_connected

    rng = spawn_rng(seed, f"gnp-{n}-{p}")
    for _ in range(200):
        g = Graph(n)
        mask = rng.random((n, n)) < p
        for u in range(n):
            for v in range(u + 1, n):
                if mask[u, v]:
                    g.add_edge(u, v)
        if is_connected(g):
            return g
    raise AssertionError("no connected sample")


def ref_geometric(n, radius, seed, euclidean):
    from repro.graphs.shortest_paths import connected_components

    rng = spawn_rng(seed, f"geometric-{n}-{radius}")
    pts = rng.random((n, 2))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            d = math.dist(pts[u], pts[v])
            if d <= radius:
                g.add_edge(u, v, d if euclidean else 1.0)
    comps = connected_components(g)
    while len(comps) > 1:
        best = (math.inf, -1, -1)
        for u in comps[0]:
            for v in comps[1]:
                d = math.dist(pts[u], pts[v])
                if d < best[0]:
                    best = (d, u, v)
        d, u, v = best
        g.add_edge(u, v, d if euclidean else 1.0)
        comps = connected_components(g)
    return g


def _lattice():
    for w in (1.0, 2.5):
        for n in (1, 2, 3, 7, 16):
            yield f"path-{n}-{w}", gen.path_graph(n, w), ref_path(n, w)
            yield f"star-{n}-{w}", gen.star_graph(n, w), ref_star(n, w)
            yield f"complete-{n}-{w}", gen.complete_graph(n, w), ref_complete(n, w)
            yield (
                f"binary-{n}-{w}",
                gen.balanced_binary_tree_graph(n, w),
                ref_binary_tree(n, w),
            )
        for n in (3, 5, 8):
            yield f"cycle-{n}-{w}", gen.cycle_graph(n, w), ref_cycle(n, w)
        for r, c in ((1, 1), (1, 4), (4, 1), (3, 2), (4, 5)):
            yield f"grid-{r}x{c}-{w}", gen.grid_graph(r, c, w), ref_grid(r, c, w)
        for r, c in ((3, 3), (3, 5), (4, 4)):
            yield f"torus-{r}x{c}-{w}", gen.torus_graph(r, c, w), ref_torus(r, c, w)
        for d in (1, 2, 4):
            yield f"hypercube-{d}-{w}", gen.hypercube_graph(d, w), ref_hypercube(d, w)
        for s, legs in ((1, 0), (1, 3), (4, 2), (5, 0)):
            yield (
                f"caterpillar-{s}-{legs}-{w}",
                gen.caterpillar_graph(s, legs, w),
                ref_caterpillar(s, legs, w),
            )
        for k, t in ((2, 0), (3, 2), (5, 4), (4, 0), (1, 3)):
            yield (
                f"lollipop-{k}-{t}-{w}",
                gen.lollipop_graph(k, t, w),
                ref_lollipop(k, t, w),
            )
    for seed in (0, 1, 2, 7):
        for n, p in ((8, 0.5), (20, 0.2), (30, 0.3)):
            yield (
                f"gnp-{n}-{p}-{seed}",
                gen.gnp_connected_graph(n, p, seed),
                ref_gnp(n, p, seed),
            )
        # Small radii force the component-stitching path.
        for n, r in ((10, 0.2), (25, 0.15), (40, 0.3)):
            for euclid in (False, True):
                yield (
                    f"geometric-{n}-{r}-{seed}-{euclid}",
                    gen.random_geometric_graph(n, r, seed, euclidean_weights=euclid),
                    ref_geometric(n, r, seed, euclid),
                )


def _rows(g):
    return [list(row.items()) for row in g._adj]


@pytest.mark.parametrize(
    "built,ref", [pytest.param(b, r, id=name) for name, b, r in _lattice()]
)
def test_generator_rows_are_identical_to_add_edge(built, ref):
    assert _rows(built) == _rows(ref)
    assert built.num_edges == ref.num_edges


def test_geometric_lattice_exercises_stitching():
    from repro.graphs.shortest_paths import connected_components

    rng = spawn_rng(0, "geometric-25-0.15")
    pts = rng.random((25, 2))
    g = Graph(25)
    for u in range(25):
        for v in range(u + 1, 25):
            if math.dist(pts[u], pts[v]) <= 0.15:
                g.add_edge(u, v)
    assert len(connected_components(g)) > 2


# ----------------------------------------------------------------------
# from_columns / edge_weights contract
# ----------------------------------------------------------------------


def test_from_columns_repeated_pair_overwrites_and_counts_once():
    g = Graph.from_columns(3, [0, 1, 1, 0], [1, 2, 0, 2], [1.0, 2.0, 5.0, 3.0])
    ref = Graph(3)
    for u, v, w in ((0, 1, 1.0), (1, 2, 2.0), (1, 0, 5.0), (0, 2, 3.0)):
        ref.add_edge(u, v, w)
    assert _rows(g) == _rows(ref)
    assert g.num_edges == ref.num_edges == 3
    assert g.weight(0, 1) == 5.0


def test_from_columns_accepts_any_real_scalar_weight():
    g = Graph.from_columns(3, range(2), range(1, 3), np.int64(2))
    assert _rows(g) == _rows(ref_path(3, 2.0))
    assert type(g.weight(0, 1)) is float


@pytest.mark.parametrize(
    "us,vs,ws,match",
    [
        ([0, 3], [1, 0], 1.0, "out of range"),
        ([0, -1], [1, 0], 1.0, "out of range"),
        ([0, 1], [1, 1], 1.0, "self-loop at node 1"),
        ([0], [1, 2], 1.0, "differ in length"),
        ([0, 1], [1, 2], [1.0], "1 weights for 2 edges"),
        ([0, 1], [1, 2], [1.0, 0.0], "positive"),
        ([0, 1], [1, 2], -1.0, "positive"),
    ],
)
def test_from_columns_checks(us, vs, ws, match):
    with pytest.raises(GraphError, match=match):
        Graph.from_columns(3, us, vs, ws)


def test_edge_weights_reads_in_order_and_names_first_absent_pair():
    g = Graph.from_columns(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
    assert g.edge_weights([2, 0, 1], [3, 1, 0]) == [3.0, 1.0, 1.0]
    assert g.edge_weights([], []) == []
    with pytest.raises(GraphError, match="no edge between 0 and 2"):
        g.edge_weights([0, 0, 1], [1, 2, 3])
    with pytest.raises(GraphError, match="node 7 out of range"):
        g.edge_weights([0, 1], [1, 7])
    with pytest.raises(GraphError, match="node -1 out of range"):
        g.edge_weights([-1], [3])


def test_copy_keeps_rows():
    g = gen.random_geometric_graph(20, 0.3, 3, euclidean_weights=True)
    assert _rows(g.copy()) == _rows(g)


# ----------------------------------------------------------------------
# weights must be finite and positive
# ----------------------------------------------------------------------

BAD_WEIGHTS = [math.nan, math.inf, -math.inf, 0.0, -2.0]


@pytest.mark.parametrize("w", BAD_WEIGHTS)
def test_add_edge_rejects_non_finite_or_non_positive_weight(w):
    with pytest.raises(GraphError, match="positive and finite"):
        Graph(2).add_edge(0, 1, w)


@pytest.mark.parametrize("w", BAD_WEIGHTS)
@pytest.mark.parametrize(
    "build",
    [
        lambda w: gen.path_graph(4, w),
        lambda w: gen.grid_graph(2, 2, w),
        lambda w: gen.complete_graph(3, w),
        lambda w: Graph.from_columns(3, [0, 1], [1, 2], w),
        lambda w: Graph.from_columns(3, [0, 1], [1, 2], [1.0, w]),
        lambda w: Graph.from_edges(3, [(0, 1), (1, 2, w)]),
    ],
)
def test_builders_reject_non_finite_or_non_positive_weight(build, w):
    with pytest.raises(GraphError, match="positive and finite"):
        build(w)


def test_graph_from_edges_rejects_extra_fields():
    with pytest.raises(GraphError, match=r"must be \(u, v\) or \(u, v, weight\)"):
        Graph.from_edges(3, [(0, 1, 2.0, 9)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0,)])
