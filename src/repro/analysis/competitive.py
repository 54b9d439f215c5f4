"""Theorem 3.19's explicit competitive-ratio ceiling.

The proof chain of Section 3 bounds arrow against the optimal offline
algorithm with explicit constants:

    cost_arrow <= (3 * ceil(log2(3D)) * 2 + 1) * C_M(π_O)   (Thm 3.19 chain)
    C_M(π_O)  <= 12 * C_O(π_O) <= 12 * s * cost_Opt

so ``ratio <= (6 ceil(log2(3D)) + 1) * 12 * s``.  The measured bracket
comes from a ``ratio`` grid cell (:mod:`repro.sweep.families`), whose
row stores this ceiling beside it; measured ratios are far below it on
random workloads, as expected from a worst-case bound.
"""

from __future__ import annotations

import math

__all__ = ["theorem_319_ceiling"]


def theorem_319_ceiling(stretch: float, diameter: float) -> float:
    """Explicit worst-case ratio ceiling from the Theorem 3.19 proof chain."""
    log_term = max(1.0, math.ceil(math.log2(max(2.0, 3.0 * diameter))))
    return (6.0 * log_term + 1.0) * 12.0 * stretch
