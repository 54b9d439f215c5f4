"""Figure 10: arrow vs centralized total latency under the closed loop.

The paper measures, on an IBM SP2 with up to 76 processors, the wall time
for 100 000 closed-loop enqueues per processor: the centralized protocol
degrades linearly with the processor count while arrow stays nearly flat.

Our reproduction runs the same closed loop on the simulated SP2 model
(complete unit-latency graph, balanced binary spanning tree, per-node
service time, §5 two-message centralized discipline) over a sweep of
system sizes.  Request counts are scaled down by default — the closed loop
reaches steady state within a few hundred requests per processor, and the
*shape* (flat vs linear, who wins where) is what the experiment checks —
with the full-size run available via ``requests_per_proc=100_000``.

Two engines drive each cell, selected by ``engine=``:

* ``"fast"`` (default) — :mod:`repro.core.fast_closed_loop`, the flat
  heap-based replay of the closed-loop dynamics;
* ``"message"`` — the original message-level drivers in
  :mod:`repro.workloads.closed_loop`.

Both are bit-identical (the parity suites enforce it), so the figure
does not depend on the choice; the fast engine just regenerates it
several times faster.  Per-size points are independent and route through
:func:`repro.sweep.executor.map_jobs`: pass ``workers > 1`` to fan the
system sizes out over processes.
"""

from __future__ import annotations

from repro.core.fast_closed_loop import closed_loop_runner
from repro.experiments.records import ExperimentResult, Series
from repro.graphs.generators import complete_graph
from repro.spanning.construct import balanced_binary_overlay
from repro.sweep.executor import map_jobs

__all__ = ["DEFAULT_PROC_COUNTS", "run_fig10"]

#: The paper sweeps 2..76 processors; these are the plotted sizes.
DEFAULT_PROC_COUNTS = [2, 4, 8, 16, 32, 48, 64, 76]


def _fig10_cell(job: tuple[int, int, float, float, int, str]) -> tuple[float, float]:
    """One system size: (arrow makespan, centralized makespan)."""
    n, requests_per_proc, service_time, think_time, seed, engine = job
    run_arrow_loop = closed_loop_runner("arrow", engine)
    run_central_loop = closed_loop_runner("centralized", engine)
    g = complete_graph(n)
    tree = balanced_binary_overlay(g, root=0)
    a = run_arrow_loop(
        g,
        tree,
        requests_per_proc=requests_per_proc,
        service_time=service_time,
        think_time=think_time,
        seed=seed,
    )
    c = run_central_loop(
        g,
        0,
        requests_per_proc=requests_per_proc,
        service_time=service_time,
        think_time=think_time,
        seed=seed,
    )
    return a.makespan, c.makespan


def run_fig10(
    proc_counts: list[int] | None = None,
    *,
    requests_per_proc: int = 300,
    service_time: float = 0.1,
    think_time: float = 0.1,
    seed: int = 0,
    engine: str = "fast",
    workers: int = 1,
) -> ExperimentResult:
    """Run the Figure 10 sweep; returns total-time series per protocol.

    ``service_time`` models the per-message CPU cost relative to the unit
    network latency (the SP2's ~µs handler vs ~40µs message latency puts
    the real ratio near 0.1); it is what makes the centralized centre a
    bottleneck, exactly as on the real machine.
    """
    closed_loop_runner("arrow", engine)  # validate the engine name up front
    procs = proc_counts if proc_counts is not None else DEFAULT_PROC_COUNTS
    jobs = [
        (n, requests_per_proc, service_time, think_time, seed, engine)
        for n in procs
    ]
    points = map_jobs(_fig10_cell, jobs, workers=workers)
    arrow_times = [p[0] for p in points]
    central_times = [p[1] for p in points]
    return ExperimentResult(
        experiment_id="fig10",
        title="Arrow vs centralized: total time for closed-loop enqueues",
        xlabel="processors",
        series=[
            Series("arrow", [float(p) for p in procs], arrow_times, "sim time"),
            Series("centralized", [float(p) for p in procs], central_times, "sim time"),
        ],
        params={
            "requests_per_proc": requests_per_proc,
            "service_time": service_time,
            "think_time": think_time,
            "seed": seed,
            "engine": engine,
        },
        notes=[
            "paper: centralized grows linearly with n; arrow sub-linear, "
            "nearly flat at large n (Fig. 10)",
        ],
    )
