"""Seeded random-number streams for reproducible experiments.

Every stochastic component (latency models, workload generators, random
topologies) draws from its own named stream derived from a single master
seed, so adding a new consumer never perturbs the draws seen by existing
ones — runs stay comparable across library versions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng"]


def spawn_rng(master_seed: int, name: str) -> np.random.Generator:
    """Derive an independent generator from ``(master_seed, name)``.

    The stream is a deterministic function of both arguments; distinct names
    give statistically independent streams (SeedSequence spawn keys).
    """
    # Hash the name into spawn-key material; SeedSequence mixes it soundly.
    key = [ord(c) for c in name]
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))

