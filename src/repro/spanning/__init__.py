"""Spanning-tree substrate: rooted trees, constructions, quality metrics."""

from repro.spanning.construct import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
    star_overlay,
)
from repro.spanning.metrics import (
    StretchReport,
    average_stretch,
    tree_diameter,
    tree_stretch,
    tree_stretch_brute_force,
)
from repro.spanning.tree import SpanningTree

__all__ = [
    "SpanningTree",
    "balanced_binary_overlay",
    "bfs_tree",
    "mst_prim",
    "random_spanning_tree",
    "star_overlay",
    "StretchReport",
    "average_stretch",
    "tree_diameter",
    "tree_stretch",
    "tree_stretch_brute_force",
]
