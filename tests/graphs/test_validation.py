"""Unit tests for graph/tree validation helpers."""

import pytest

from repro.errors import TreeError
from repro.graphs import (
    complete_graph,
)
from repro.graphs.generators import path_graph
from repro.graphs.graph import Graph
from repro.graphs.validation import require_spanning_subgraph
from tree_oracles import is_tree


def test_is_tree():
    assert is_tree(path_graph(5))
    assert not is_tree(complete_graph(4))
    g = Graph(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    assert not is_tree(g)


def test_require_tree_wrong_edge_count():
    assert not is_tree(complete_graph(3))


def test_require_tree_disconnected():
    g = Graph(4)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 2)  # 3 edges on 4 nodes, but node 3 isolated
    assert not is_tree(g)


def test_require_spanning_subgraph():
    g = complete_graph(4)
    require_spanning_subgraph(g, [(0, 1), (1, 2), (2, 3)])
    h = path_graph(4)
    with pytest.raises(TreeError):
        require_spanning_subgraph(h, [(0, 3)])
