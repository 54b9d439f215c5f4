"""Graph substrate: topologies, shortest paths, validation."""

from repro.graphs.generators import (
    complete_graph,
    grid_graph,
    hypercube_graph,
    random_geometric_graph,
)
from repro.graphs.shortest_paths import dijkstra

__all__ = ["complete_graph", "dijkstra", "grid_graph", "hypercube_graph", "random_geometric_graph"]
