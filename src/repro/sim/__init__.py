"""Discrete-event simulation kernel.

The kernel substitutes for the paper's IBM SP2 testbed: all protocol code
runs as atomic callbacks over a deterministic virtual clock
(:mod:`repro.sim.kernel` says what "deterministic" means here).
"""
