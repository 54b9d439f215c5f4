"""Figure 11: average interprocessor messages (hops) per arrow operation.

The paper reports fewer than one interprocessor message per queuing
request — most requests find their predecessor locally or one hop away —
over the same closed-loop workload as Fig. 10.  This experiment records
arrow's mean queue-message hop count and the local-find fraction per
system size.

Three engines are available:

* ``engine="fast"`` (default) — the §5 closed loop replayed on
  :mod:`repro.core.fast_closed_loop`, bit-identical to the message-level
  driver at a fraction of the wall clock;
* ``engine="message"`` — the same closed loop on the message-level
  simulator, exactly as the paper measures it (identical output);
* ``engine="open"`` — the open-loop steady-state analogue: Poisson
  traffic at one request per processor per time unit replayed on the
  :class:`~repro.core.fast_arrow.FastArrowEngine`.  The closed loop's
  issue rate converges to exactly that once acknowledgements pipeline,
  so the hop metrics agree closely; useful for cross-checking the two
  workload styles against each other.

Per-size points route through :func:`repro.sweep.executor.map_jobs`;
``workers > 1`` fans them out over processes.
"""

from __future__ import annotations

from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_runner
from repro.experiments.fig10 import DEFAULT_PROC_COUNTS
from repro.experiments.records import ExperimentResult, Series
from repro.graphs.generators import complete_graph
from repro.spanning.construct import balanced_binary_overlay
from repro.sweep.executor import map_jobs
from repro.workloads.schedules import poisson

__all__ = ["run_fig11"]


def _fig11_cell(
    job: tuple[int, int, float, float, int, str]
) -> tuple[float, float]:
    """One system size: (mean hops/op, local-find fraction)."""
    n, requests_per_proc, service_time, think_time, seed, engine = job
    g = complete_graph(n)
    tree = balanced_binary_overlay(g, root=0)
    if engine == "open":
        sched = poisson(n, requests_per_proc * n, rate=float(n), seed=seed)
        res = run_arrow_fast(g, tree, sched, seed=seed, service_time=service_time)
        return res.mean_hops, res.local_find_fraction()
    a = closed_loop_runner("arrow", engine)(
        g,
        tree,
        requests_per_proc=requests_per_proc,
        service_time=service_time,
        think_time=think_time,
        seed=seed,
    )
    return a.mean_hops, a.local_find_fraction


def run_fig11(
    proc_counts: list[int] | None = None,
    *,
    requests_per_proc: int = 300,
    service_time: float = 0.1,
    think_time: float = 0.1,
    seed: int = 0,
    engine: str = "fast",
    workers: int = 1,
) -> ExperimentResult:
    """Run the Figure 11 sweep: hops per operation vs system size."""
    if engine != "open":
        closed_loop_runner("arrow", engine)  # validate the engine name
    procs = proc_counts if proc_counts is not None else DEFAULT_PROC_COUNTS
    jobs = [
        (n, requests_per_proc, service_time, think_time, seed, engine)
        for n in procs
    ]
    points = map_jobs(_fig11_cell, jobs, workers=workers)
    mean_hops = [p[0] for p in points]
    local_frac = [p[1] for p in points]
    xs = [float(p) for p in procs]
    loop = "open loop, fast engine" if engine == "open" else "closed loop"
    return ExperimentResult(
        experiment_id="fig11",
        title=f"Arrow: queue-message hops per operation ({loop})",
        xlabel="processors",
        series=[
            Series("mean hops/op", xs, mean_hops, "hops"),
            Series("local-find fraction", xs, local_frac, ""),
        ],
        params={
            "requests_per_proc": requests_per_proc,
            "service_time": service_time,
            # think_time only shapes the closed loop; the open-loop
            # analogue has no acknowledgement round-trip to think after.
            **({"think_time": think_time} if engine != "open" else {}),
            "seed": seed,
            "engine": engine,
        },
        notes=[
            "paper: average below 1 hop/op because many requests find "
            "their predecessor locally (Fig. 11)",
            # engine="fast" used to name the open-loop analogue; since the
            # closed loop gained its own fast engine, fast/message both run
            # the closed loop (bit-identical) and the analogue is "open".
            "engines: fast/message = closed loop (identical "
            "results), open = open-loop steady-state analogue",
        ],
    )
