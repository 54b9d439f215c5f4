"""Seeded random streams (:mod:`repro.sim.rng`), one per named consumer.

The discrete-event kernel that substitutes for the paper's IBM SP2
testbed is :class:`repro.core.message.Simulator`.
"""
