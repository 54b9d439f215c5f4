"""The comb-shaped Manhattan MST bound for the Theorem 4.1 instance.

The proof bounds the optimal offline cost via an explicit "comb" spanning
tree of the requests under the Manhattan metric: a horizontal chain
connecting all requests at time 0, plus one vertical chain per node
linking that node's requests across time.  Its Manhattan weight is

    C_M(comb) <= D + Σ_t (t * #requests-last-issued-at-time-t)
              <  D + log^{k+1} D / (log D - 1)^2  =  O(D)  for the
                 paper's choice of k.

This module computes the exact comb weight for a concrete instance: the
``comb_weight`` column of every ``lowerbound`` row.  The rows' ratios
divide by the upper end of ``opt_bounds``' bracket, not by the comb.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.requests import RequestSchedule

__all__ = ["comb_mst_weight"]


def comb_mst_weight(schedule: RequestSchedule, root_pos: int = 0) -> float:
    """Manhattan weight of the comb spanning structure of the requests.

    Horizontal chain: consecutive distinct node positions (plus the root
    position) at their earliest requests — costs the position span.
    Vertical chains: per node, the span of its request times.

    This is an upper bound on the Manhattan MST weight (the comb is one
    spanning tree); the proof only needs its ``O(D)`` growth.
    """
    if len(schedule) == 0:
        return 0.0
    by_node: dict[int, list[float]] = defaultdict(list)
    for r in schedule:
        by_node[r.node].append(r.time)
    positions = sorted(set(by_node) | {root_pos})
    horizontal = float(positions[-1] - positions[0])
    vertical = sum(max(ts) - min(ts) for ts in by_node.values())
    return horizontal + float(vertical)
