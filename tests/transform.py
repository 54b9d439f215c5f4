"""Lemma 3.11 oracle: the idle-time compression (Lemmas 3.11 and 3.12).

Lemma 3.11: if between two consecutive requests (by issue time) the
quantity ``δ = min over (r_a before, r_b after) of (t_b - t_a - d_T(v_a,
v_b))`` is positive, every later request can be shifted earlier by ``δ``
without changing arrow's cost and without increasing the optimal offline
cost.  Repeating until no positive ``δ`` remains yields a canonical
schedule in which (Lemma 3.12) every gap has witnesses ``r_a, r_b`` with
``t_b - t_a <= d_T(v_a, v_b)`` — the precondition for the longest-edge
bound ``c_T <= 3D`` on arrow's path (Lemma 3.13).

The tests verify both invariances (arrow cost via the fast executor, Opt
via the exact solver on small instances) and the post-condition
(``tests/analysis/test_transform.py``,
``tests/properties/test_transform_hypothesis.py``).  No table runs the
transformation, so it lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.costs import augmented_nodes_times, request_distance_matrix
from repro.core.requests import RequestSchedule
from repro.spanning.tree import SpanningTree

#: Safety cap on Lemma 3.11 shifts (each closes one gap; the loop ends long
#: before this on any finite schedule).
MAX_SHIFTS = 10_000


@dataclass(frozen=True, slots=True)
class TransformReport:
    """Result of compressing a schedule's idle time."""

    schedule: RequestSchedule
    shifts_applied: int
    total_shift: float


def shifted(schedule: RequestSchedule, rids: Sequence[int], delta: float) -> RequestSchedule:
    """New schedule with the given requests' times shifted by ``delta``.

    Shifting must keep all times non-negative (``RequestSchedule`` checks).
    """
    rid_set = set(rids)
    times = [t + delta if rid in rid_set else t for rid, t in enumerate(schedule.times)]
    return RequestSchedule.from_columns(schedule.nodes, times)


def _slacks(times: np.ndarray, D: np.ndarray) -> np.ndarray:
    """For each boundary between distinct consecutive issue times, the δ.

    ``δ_g = min_{a: t_a <= boundary} min_{b: t_b > boundary}
    (t_b - t_a - d_T(v_a, v_b))`` where boundaries sit between distinct
    consecutive time values.  Vectorised via the full pairwise matrix.
    """
    # Pairwise t_b - t_a - D for a as row, b as column.
    gap = times[None, :] - times[:, None] - D
    uniq = np.unique(times)
    out = np.full(len(uniq) - 1, np.inf)
    for g in range(len(uniq) - 1):
        boundary = uniq[g]
        a_mask = times <= boundary
        b_mask = times > boundary
        if a_mask.any() and b_mask.any():
            out[g] = gap[np.ix_(a_mask, b_mask)].min()
    return out


def max_gap_slack(tree: SpanningTree, schedule: RequestSchedule) -> float:
    """Largest remaining δ across all time gaps (<= 0 when canonical)."""
    if len(schedule) == 0:
        return 0.0
    nodes, times = augmented_nodes_times(schedule, tree.root)
    D = request_distance_matrix(tree, nodes)
    slacks = _slacks(times, D)
    return float(slacks.max()) if len(slacks) else 0.0


def compress_idle_time(tree: SpanningTree, schedule: RequestSchedule) -> TransformReport:
    """Apply Lemma 3.11 shifts until no gap has positive slack.

    Each iteration closes the earliest positive gap; the number of distinct
    time values never grows and each iteration removes at least one unit of
    slack, so the loop terminates.  The virtual root request (time 0) is a
    member of the "before" set for every gap, which keeps times >= 0.
    """
    current = schedule
    shifts = 0
    total = 0.0
    for _ in range(MAX_SHIFTS):
        if len(current) == 0:
            break
        nodes, times = augmented_nodes_times(current, tree.root)
        D = request_distance_matrix(tree, nodes)
        slacks = _slacks(times, D)
        pos = np.nonzero(slacks > 1e-12)[0]
        if len(pos) == 0:
            break
        g = int(pos[0])
        boundary = np.unique(times)[g]
        delta = float(slacks[g])
        late_rids = [r.rid for r in current if r.time > boundary]
        current = shifted(current, late_rids, -delta)
        shifts += 1
        total += delta
    return TransformReport(current, shifts, total)
