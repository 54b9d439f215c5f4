"""repro — a reproduction of the arrow distributed queuing protocol paper.

Herlihy, Kuhn, Tirthapura, Wattenhofer: *Dynamic Analysis of the Arrow
Distributed Protocol* (SPAA 2004; Theory of Computing Systems 39, 2006).

Public API tour
---------------
* build a network:      :mod:`repro.graphs` (topologies) and
  :mod:`repro.spanning` (spanning trees, stretch/diameter metrics);
* run protocols:        :func:`repro.core.run_arrow`,
  :func:`repro.core.run_centralized`, :func:`repro.core.run_adaptive`,
  and the closed-loop drivers in :mod:`repro.workloads`;
* analyse (Section 3):  :mod:`repro.analysis` — cost measures, the
  nearest-neighbour characterisation, optimal-offline brackets and
  Theorem 3.19's ceiling (a ``ratio`` grid cell measures the bracket);
* adversarial inputs:   :mod:`repro.lowerbound` (Section 4 constructions);
* paper tables:         named grids in :mod:`repro.sweep` (``fig10_grid``,
  ``thm319_grid``, ...) tabulated by :func:`repro.results.figure_from_rows`
  and rendered by :mod:`repro.experiments`; the ``repro-arrow``
  command-line interface runs them all.
"""

from repro._version import __version__
from repro.analysis import predict_arrow_run
from repro.core import (
    RequestSchedule,
    RunResult,
    run_adaptive,
    run_arrow,
    run_centralized,
    verify_total_order,
)
from repro.errors import ReproError
from repro.graphs import Graph
from repro.net import Network, UniformLatency, UnitLatency
from repro.sim import Simulator
from repro.spanning import (
    SpanningTree,
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    tree_diameter,
    tree_stretch,
)
from repro.workloads import closed_loop_arrow, closed_loop_centralized

__all__ = [
    "__version__",
    "predict_arrow_run",
    "RequestSchedule",
    "RunResult",
    "run_adaptive",
    "run_arrow",
    "run_centralized",
    "verify_total_order",
    "ReproError",
    "Graph",
    "Network",
    "UniformLatency",
    "UnitLatency",
    "Simulator",
    "SpanningTree",
    "balanced_binary_overlay",
    "bfs_tree",
    "mst_prim",
    "tree_diameter",
    "tree_stretch",
    "closed_loop_arrow",
    "closed_loop_centralized",
]
