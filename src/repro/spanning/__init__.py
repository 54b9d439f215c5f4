"""Spanning-tree substrate: rooted trees, constructions, quality metrics."""

from repro import _lazy_attributes

__all__ = [
    "balanced_binary_overlay",
    "bfs_tree",
    "mst_prim",
    "random_spanning_tree",
    "tree_diameter",
    "tree_stretch",
]

#: Each public name -> its defining module, imported on first access: a
#: sweep spec builds trees without compiling the quality metrics.
_LAZY = {
    "balanced_binary_overlay": "repro.spanning.construct",
    "bfs_tree": "repro.spanning.construct",
    "mst_prim": "repro.spanning.construct",
    "random_spanning_tree": "repro.spanning.construct",
    "tree_diameter": "repro.spanning.metrics",
    "tree_stretch": "repro.spanning.metrics",
}
__getattr__ = _lazy_attributes(__name__, _LAZY)
