"""repro — a reproduction of the arrow distributed queuing protocol paper.

Herlihy, Kuhn, Tirthapura, Wattenhofer: *Dynamic Analysis of the Arrow
Distributed Protocol* (SPAA 2004; Theory of Computing Systems 39, 2006).

Public API tour
---------------
Each name has one import path: a package re-exports only the names the
command-line interface, the examples or the benchmark import through it.

* build a network:      generators in :mod:`repro.graphs`, spanning trees
  and their stretch / diameter in :mod:`repro.spanning`;
* run protocols:        :func:`repro.run_arrow` (message level; the fast
  engine is :func:`repro.core.fast_arrow.run_arrow_fast`) and
  :func:`repro.run_centralized` on a :class:`repro.RequestSchedule`,
  checked by :func:`repro.verify_total_order`;
  :func:`repro.core.fast_closed_loop.run_adaptive` (NTA/Ivy pointers),
  and the closed-loop drivers in :mod:`repro.core.fast_closed_loop` and
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

import sys
from importlib import import_module

__all__ = [
    "__version__",
    "RequestSchedule",
    "UniformLatency",
    "run_arrow",
    "run_centralized",
    "verify_total_order",
]


def _lazy_attributes(package: str, table: dict[str, str]):
    """A facade's module ``__getattr__`` (PEP 562): each name of ``table``
    is imported from its defining module on first access, then kept.

    So importing one module of a package compiles none of its siblings:
    ``import repro.cli`` and the read side of the results store load no
    engine.
    """

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(table[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


#: Each public name -> its defining module.
_LAZY = {
    "__version__": "repro._version",
    "RequestSchedule": "repro.core.requests",
    "UniformLatency": "repro.net.latency",
    "run_arrow": "repro.core.runner",
    "run_centralized": "repro.core.fast_closed_loop",
    "verify_total_order": "repro.core.queueing",
}
__getattr__ = _lazy_attributes(__name__, _LAZY)
