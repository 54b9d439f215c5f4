"""Spanning-tree substrate: rooted trees, constructions, quality metrics."""

from repro.spanning.construct import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
)
from repro.spanning.metrics import tree_diameter, tree_stretch

__all__ = [
    "balanced_binary_overlay",
    "bfs_tree",
    "mst_prim",
    "random_spanning_tree",
    "tree_diameter",
    "tree_stretch",
]
