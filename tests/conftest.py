"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.graphs import complete_graph, grid_graph
from repro.graphs.generators import path_graph
from repro.spanning import balanced_binary_overlay, bfs_tree
from repro.spanning.tree import SpanningTree


@pytest.fixture
def k16():
    """Complete graph on 16 nodes (SP2 model, small)."""
    return complete_graph(16)


@pytest.fixture
def k16_tree(k16):
    """Balanced binary overlay on K16 rooted at 0."""
    return balanced_binary_overlay(k16, root=0)


@pytest.fixture
def path9():
    """Path graph on 9 nodes."""
    return path_graph(9)


@pytest.fixture
def path9_tree(path9):
    """The path itself as a spanning tree rooted at node 0."""
    return SpanningTree([max(0, i - 1) for i in range(9)], root=0)


@pytest.fixture
def grid5x5():
    """5x5 mesh."""
    return grid_graph(5, 5)


@pytest.fixture
def grid5x5_tree(grid5x5):
    """BFS tree of the mesh rooted at its corner."""
    return bfs_tree(grid5x5, root=0)
