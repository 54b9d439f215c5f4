"""Distributed directories: the application of §1 and §5.1.

The paper's motivating application is synchronising access to a single
mobile object.  Herlihy & Warres (§5.1) compared two directory designs:

* the **arrow directory**: acquisitions are arrow queuing requests; the
  object travels directly from each holder to its successor once
  released (one routed transfer message per handoff);
* the **home-based directory**: a fixed home node tracks the holder;
  every acquisition goes through the home (request to home, forward to
  the current holder, transfer from holder to requester — three routed
  messages per handoff), so the home serialises all control traffic.

Both run under a closed acquire→use→release loop on the flat event loops
of :mod:`repro.core` — the arrow directory as a configuration of
``fast_arrow._arrow_loop``, the home directory of
``fast_closed_loop._central_loop`` — and are instrumented for the §5.1
comparison: total completion time, message counts, and a global
mutual-exclusion check (every row records that the holding intervals
never overlap).  The runs are bit-identical to the message-level
protocols on :class:`~repro.net.network.Network`, which are kept as the
oracle in ``tests/directory_oracles.py`` and checked on every small
instance by ``tests/small_models.py``: the same events in the same
``(time, seq)`` order, latency draws from the one ``"network-latency"``
stream, and ``max_events`` counting the same events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fast_arrow import _ISSUE, _arrow_loop
from repro.core.fast_closed_loop import _DISSUE, _central_loop
from repro.core.totals import float_total
from repro.errors import NetworkError, ProtocolError, ScheduleError, require_time
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel, UnitLatency
from repro.net.router import Router
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree

__all__ = ["DirectoryResult", "arrow_directory", "home_directory"]

#: Slack for float noise when two holding intervals touch.
EXCLUSION_TOL = 1e-9


@dataclass(slots=True)
class DirectoryResult:
    """Outcome of one directory run."""

    protocol: str
    num_procs: int
    acquisitions_per_proc: int
    makespan: float = 0.0
    completions: int = 0
    messages_sent: int = 0
    #: (acquire_time, release_time, node) per acquisition, in handoff order.
    intervals: list[tuple[float, float, int]] = field(default_factory=list)

    @property
    def total_acquisitions(self) -> int:
        """Total acquisitions across all processors."""
        return self.num_procs * self.acquisitions_per_proc

    def exclusion_holds(self) -> bool:
        """True iff no two holding intervals overlap."""
        ordered = sorted(self.intervals)
        return all(
            r1 <= a2 + EXCLUSION_TOL for (a1, r1, _), (a2, r2, _) in zip(ordered, ordered[1:])
        )

    @property
    def mean_wait(self) -> float:
        """Mean time from handoff start to the next acquisition (proxy)."""
        if len(self.intervals) < 2:
            return 0.0
        ordered = sorted(self.intervals)
        gaps = [a2 - r1 for (_, r1, _), (a2, _, _) in zip(ordered, ordered[1:])]
        return float_total(gaps) / len(gaps)

    def row_metrics(self) -> dict[str, object]:
        """Sweep-row view of this run (scale-free).

        The ``exclusion_ok`` column persists the mutual-exclusion
        invariant with every row, so a sweep file is auditable after the
        fact — ``sweep-verify``/``sweep-merge`` consumers can refuse
        files whose rows carry ``false`` without re-running anything.
        """
        return {
            "protocol": self.protocol,
            "requests": self.total_acquisitions,
            "makespan": self.makespan,
            "messages_sent": self.messages_sent,
            "msgs_per_acquisition": (
                self.messages_sent / self.total_acquisitions
                if self.total_acquisitions
                else 0.0
            ),
            "mean_wait": self.mean_wait,
            "exclusion_ok": self.exclusion_holds(),
        }


def _check_directory_args(acquisitions_per_proc: int, cs_time: float) -> None:
    """Reject out-of-range loop knobs; both directory drivers call this.

    A negative budget would otherwise surface late as "completed 0 of -4
    acquisitions", a negative ``cs_time`` as a release scheduled into the
    past and a NaN one as a NaN event time.
    ``acquisitions_per_proc == 0`` is legal: an empty, complete run.
    """
    if acquisitions_per_proc < 0:
        raise ScheduleError(
            f"acquisitions_per_proc must be >= 0, got {acquisitions_per_proc}"
        )
    require_time("cs_time", cs_time, ScheduleError)


def _finish(result: DirectoryResult, messages: int) -> DirectoryResult:
    """Counters from the holding intervals (the last release is the last
    interval's: a hand-off never precedes the release before it)."""
    intervals = result.intervals
    result.completions = len(intervals)
    result.makespan = intervals[-1][1] if intervals else 0.0
    result.messages_sent = messages
    if result.completions != result.total_acquisitions:
        raise ProtocolError(
            f"{result.protocol.replace('-', ' ')} completed {result.completions} of "
            f"{result.total_acquisitions} acquisitions"
        )
    return result


def arrow_directory(
    graph: Graph,
    tree: SpanningTree,
    *,
    acquisitions_per_proc: int,
    cs_time: float = 0.5,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> DirectoryResult:
    """Run the arrow-based directory under a closed acquire loop: every
    processor requests at t = 0 and again inside each release."""
    _check_directory_args(acquisitions_per_proc, cs_time)
    n = graph.num_nodes
    result = DirectoryResult("arrow-directory", n, acquisitions_per_proc)
    model = latency if latency is not None else UnitLatency()
    # One stream for tree-link and routed sends, drawn in event order.
    rng = spawn_rng(seed, "network-latency")
    issues = [(0.0, p, _ISSUE, p, -1, -1, 0) for p in range(n)]
    # No issue times are kept (the list is dropped), no acknowledgements.
    driver = ([acquisitions_per_proc] * n, [], [], None, None, None, 0.0,
              Router(graph, model, rng).delay_hops, (float(cs_time), result.intervals))
    _, messages, _ = _arrow_loop(
        graph, tree, model, service_time, rng, [], [], issues, max_events, None, driver=driver
    )
    return _finish(result, messages)


def home_directory(
    graph: Graph,
    home: int,
    *,
    acquisitions_per_proc: int,
    cs_time: float = 0.5,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> DirectoryResult:
    """Run the home-based directory under the same closed acquire loop."""
    n = graph.num_nodes
    if not 0 <= home < n:
        raise NetworkError(f"home {home} out of range for {n} nodes")
    _check_directory_args(acquisitions_per_proc, cs_time)
    require_time("service_time", service_time, NetworkError)
    result = DirectoryResult("home-directory", n, acquisitions_per_proc)
    model = latency if latency is not None else UnitLatency()
    delay_hops = Router(graph, model, spawn_rng(seed, "network-latency")).delay_hops
    requests = [(0.0, p, _DISSUE, p, -1, -1, 0) for p in range(n)]
    driver = ([acquisitions_per_proc] * n, None, None, None, None, None, 0.0,
              delay_hops, (float(cs_time), result.intervals))
    _, messages = _central_loop(n, home, model, service_time, requests, max_events, driver)
    return _finish(result, messages)
