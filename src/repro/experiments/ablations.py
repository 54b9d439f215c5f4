"""Ablation experiments for the design choices the paper calls out.

* **Spanning-tree choice** (§1.1: MST suggested by [4], min-communication
  trees by [18]): same graph and workload, different trees — lower stretch
  should mean lower arrow cost.
* **Protocol comparison** (§1.1: NTA [17] / Ivy [15] adaptive pointers vs
  arrow's fixed tree; §5's centralized): message counts per operation on a
  complete graph.
* **Service-time sensitivity**: where the Fig. 10 arrow/centralized
  crossover sits as the CPU/network cost ratio varies.
"""

from __future__ import annotations

from repro.core.adaptive import run_adaptive
from repro.core.runner import run_arrow, run_centralized
from repro.experiments.records import ExperimentResult, Series
from repro.graphs.generators import complete_graph, random_geometric_graph
from repro.spanning.construct import (
    balanced_binary_overlay,
    bfs_tree,
    mst_prim,
    random_spanning_tree,
    star_overlay,
)
from repro.spanning.metrics import tree_stretch
from repro.sweep import fig10_grid, iter_sweep
from repro.workloads.schedules import poisson

__all__ = [
    "run_tree_ablation",
    "run_protocol_ablation",
    "run_service_time_ablation",
]


def run_tree_ablation(
    *, num_nodes: int = 48, requests: int = 150, rate: float = 3.0, seed: int = 0
) -> ExperimentResult:
    """Arrow cost under different spanning trees of one geometric graph."""
    graph = random_geometric_graph(num_nodes, 0.3, seed=seed)
    builders = [
        ("mst", lambda: mst_prim(graph, 0)),
        ("bfs", lambda: bfs_tree(graph, 0)),
        ("random", lambda: random_spanning_tree(graph, 0, seed=seed)),
    ]
    sched = poisson(num_nodes, requests, rate, seed=seed)
    xs: list[float] = []
    stretches: list[float] = []
    costs: list[float] = []
    for i, (name, build) in enumerate(builders):
        tree = build()
        res = run_arrow(graph, tree, sched)
        xs.append(float(i))
        stretches.append(tree_stretch(graph, tree).stretch)
        costs.append(res.total_latency)
    return ExperimentResult(
        experiment_id="ablation-trees",
        title="Spanning-tree choice: stretch vs arrow cost (same workload)",
        xlabel="tree (0=mst, 1=bfs, 2=random)",
        series=[
            Series("stretch", xs, stretches),
            Series("arrow total latency", xs, costs),
        ],
        params={"num_nodes": num_nodes, "requests": requests, "seed": seed},
        notes=["lower-stretch trees should give lower arrow cost ([4], [18])"],
    )


def run_protocol_ablation(
    *, num_nodes: int = 32, requests: int = 200, rate: float = 4.0, seed: int = 0
) -> ExperimentResult:
    """Messages per op: arrow vs NTA/Ivy pointers vs centralized (K_n)."""
    graph = complete_graph(num_nodes)
    tree = balanced_binary_overlay(graph, 0)
    star = star_overlay(graph, 0)
    sched = poisson(num_nodes, requests, rate, seed=seed)

    runs = [
        ("arrow/binary-tree", run_arrow(graph, tree, sched)),
        ("arrow/star-tree", run_arrow(graph, star, sched)),
        ("nta-ivy", run_adaptive(graph, 0, sched)),
        ("centralized", run_centralized(graph, 0, sched)),
    ]
    xs = [float(i) for i in range(len(runs))]
    msgs = [r.network_stats["messages_sent"] / len(sched) for _, r in runs]
    latency = [r.total_latency / len(sched) for _, r in runs]
    return ExperimentResult(
        experiment_id="ablation-protocols",
        title="Protocol comparison on K_n: messages and latency per op",
        xlabel="protocol (0=arrow/bin, 1=arrow/star, 2=nta-ivy, 3=centralized)",
        series=[
            Series("messages/op", xs, msgs),
            Series("latency/op", xs, latency),
        ],
        params={"num_nodes": num_nodes, "requests": requests, "seed": seed},
        notes=[
            "NTA/Ivy adaptive pointers average O(log n) messages/op ([7], [17]);"
            " arrow's are bounded by the tree distance to the predecessor",
        ],
    )


def run_service_time_ablation(
    *,
    num_procs: int = 48,
    requests_per_proc: int = 150,
    service_times: list[float] | None = None,
) -> ExperimentResult:
    """Fig. 10 sensitivity: total time vs per-message CPU cost.

    One single-size :func:`~repro.sweep.fig10_grid` per service time
    (think time = service time); the two series are its rows' makespans.
    """
    sts = service_times if service_times is not None else [0.0, 0.05, 0.1, 0.2, 0.4]
    makespans: dict[str, list[float]] = {"closed_arrow": [], "closed_centralized": []}
    for st in sts:
        grid = fig10_grid(
            sizes=(num_procs,),
            requests_per_proc=requests_per_proc,
            think_time=st,
            service_time=st,
        )
        for row in iter_sweep(grid):
            makespans[row["schedule"].split("(")[0]].append(row["makespan"])
    return ExperimentResult(
        experiment_id="ablation-service-time",
        title="Closed-loop total time vs per-message service time",
        xlabel="service time (fraction of link latency)",
        series=[
            Series("arrow", sts, makespans["closed_arrow"], "sim time"),
            Series("centralized", sts, makespans["closed_centralized"], "sim time"),
        ],
        params={"num_procs": num_procs, "requests_per_proc": requests_per_proc},
        notes=[
            "the centralized protocol's disadvantage grows with the CPU "
            "cost per message (the centre serialises all requests)",
        ],
    )
