"""Structural validation helpers for graphs and candidate trees."""

from __future__ import annotations

from repro.errors import GraphError, TreeError
from repro.graphs.graph import Graph

__all__ = ["require_spanning_subgraph", "tree_link_weights"]


def require_spanning_subgraph(graph: Graph, tree_edges: list[tuple[int, int]]) -> None:
    """Check every tree edge exists in ``graph`` (spanning-tree legality).

    The arrow protocol requires the pre-selected tree to be a spanning tree
    *of the communication graph*: pointers may only reference tree
    neighbours, and tree neighbours must share a physical link.
    """
    tree_link_weights(graph, [u for u, _ in tree_edges], [v for _, v in tree_edges])


def tree_link_weights(
    graph: Graph,
    us: list[int],
    vs: list[int],
    missing: str = "tree edge ({u}, {v}) is not an edge of the graph",
) -> list[float]:
    """Graph weights of the tree links ``us[i] — vs[i]``, in one bulk read.

    Raises :class:`TreeError` with ``missing.format(u=u, v=v)`` for the
    first link that is not an edge of ``graph`` (a :class:`GraphError` if
    a node is out of its range).
    """
    try:
        return graph.edge_weights(us, vs)
    except GraphError:
        for u, v in zip(us, vs):
            if not graph.has_edge(u, v):
                raise TreeError(missing.format(u=u, v=v)) from None
        raise
