"""repro — a reproduction of the arrow distributed queuing protocol paper.

Herlihy, Kuhn, Tirthapura, Wattenhofer: *Dynamic Analysis of the Arrow
Distributed Protocol* (SPAA 2004; Theory of Computing Systems 39, 2006).

Public API tour
---------------
Each name has one import path: a package re-exports only the names the
command-line interface, the examples or the benchmark import through it.

* build a network:      generators in :mod:`repro.graphs`, spanning trees
  and their stretch / diameter in :mod:`repro.spanning`;
* run protocols:        :func:`repro.run_arrow` and
  :func:`repro.run_centralized` on a :class:`repro.RequestSchedule`,
  checked by :func:`repro.verify_total_order`;
  :func:`repro.core.adaptive.run_adaptive`, and the closed-loop drivers in
  :mod:`repro.workloads.closed_loop`;
* analyse (Section 3):  :func:`repro.analysis.predict_arrow_run` (the
  nearest-neighbour characterisation) and
  :func:`repro.analysis.opt_bounds` (the optimal-offline bracket; a
  ``ratio`` grid cell measures the competitive bracket);
* adversarial inputs:   :mod:`repro.lowerbound` (Section 4 constructions);
* paper tables:         named grids in :mod:`repro.sweep` (``fig10_grid``,
  ``GRIDS``, ...) tabulated by :func:`repro.results.figure_from_rows`
  and rendered by :mod:`repro.experiments`; the ``repro-arrow``
  command-line interface runs them all.
"""

from repro._version import __version__
from repro.core.queueing import verify_total_order
from repro.core.requests import RequestSchedule
from repro.core.runner import run_arrow, run_centralized
from repro.net.latency import UniformLatency

__all__ = [
    "__version__",
    "RequestSchedule",
    "UniformLatency",
    "run_arrow",
    "run_centralized",
    "verify_total_order",
]
