"""Workload generators: request schedules.

The §5 closed loops generate their requests from the dynamics and live
with their engines (:mod:`repro.core.fast_closed_loop`,
:mod:`repro.core.message`).
"""

from repro.workloads.schedules import poisson

__all__ = ["poisson"]
