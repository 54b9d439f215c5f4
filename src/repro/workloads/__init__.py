"""Workload generators: request schedules and the closed-loop driver."""

from repro.workloads.schedules import poisson

__all__ = ["poisson"]
