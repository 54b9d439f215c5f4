"""A command loads only the layer it runs.

Fresh interpreters import :mod:`repro.cli` and run, through ``main``:

* the sweeps of a §5 closed loop and a directory grid on the simulated
  SP2 (complete graph, unit latency: no random draw), none of which may
  import numpy; the fig10 sweep must import its engine,
  :mod:`repro.core.fast_closed_loop` — the layer check is not vacuous;
* in a second interpreter, the read side over those files
  (``sweep-merge``, ``sweep-verify``, ``results ingest/table/plot/
  compare``): no numpy, no engine module (:data:`ENGINE_MODULES`) and no
  tree layer (:data:`TREE_MODULES`) after ``import repro.cli`` or after
  any step;
* then a one-cell Poisson sweep, which must import numpy.

An ``ablation-protocols`` sweep runs all three of its protocols on the
flat loops, and a faulted, monitored ``fig11`` sweep runs the flat loop
with a fault state: neither, nor the fig10 sweep nor the directory
sweep, loads the message engine (:data:`MESSAGE_MODULES`) — the flat
loops take their router, result type, fault state and argument checks
from modules of their own.

A third interpreter checks the other direction: after
:func:`repro.sweep.executor.import_engines`, running a grid's cells
imports no further engine or tree module, for every cell family.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The simulator: no declaration- or storage-layer command may load these.
ENGINE_MODULES = [
    "repro.core.fast_arrow",
    "repro.core.fast_closed_loop",
    "repro.core.message",
    "repro.core.stabilize",
    "repro.faults",
    "repro.monitors",
    "repro.apps.directory",
    "repro.lowerbound",
    "repro.analysis",
]

#: The message engine: no flat-loop sweep may load it.
MESSAGE_MODULES = ["repro.core.message"]

#: The tree layer, loaded by the first ``build_tree`` of a sweep; reading
#: stored rows back builds no tree.
TREE_MODULES = [
    "repro.spanning.construct",
    "repro.spanning.tree",
    "repro.graphs.validation",
]

#: Every module a step's report may name.
WATCHED = list(dict.fromkeys(ENGINE_MODULES + TREE_MODULES + MESSAGE_MODULES))

FIG10 = ["--grid", "fig10", "--sizes", "4", "--requests-per-proc", "5"]
#: (label, argv) in order; each step may read the files earlier ones wrote.
SWEEP_STEPS = [
    ("sweep fig10", ["sweep", *FIG10, "--out", "fig10.jsonl"]),
    ("sweep directory", ["sweep", "--grid", "directory", "--sizes", "4",
                         "--acquisitions-per-proc", "3", "--out", "directory.jsonl"]),
    ("sweep fig10 shard 0", ["sweep", *FIG10, "--shard", "0/2", "--out", "part.jsonl"]),
    ("sweep fig10 shard 1", ["sweep", *FIG10, "--shard", "1/2", "--out", "part.jsonl"]),
]
READ_STEPS = [
    ("sweep-merge", ["sweep-merge", "part.shard1-2.jsonl", "part.shard0-2.jsonl",
                     "--out", "merged.jsonl", "--expect-cells", "2"]),
    ("sweep-verify", ["sweep-verify", "--a", "merged.jsonl", "--b", "fig10.jsonl",
                      "--expect-cells", "2"]),
    ("results ingest", ["results", "ingest", "fig10.jsonl", "--store", "store", *FIG10]),
    ("results table", ["results", "table", "fig10", "--store", "store", "--percentiles"]),
    ("results plot", ["results", "plot", "fig10", "--store", "store"]),
    ("results compare", ["results", "compare", "--store", "store", "--a", "fig10",
                         "--b", "fig10.jsonl", "--max-delta-pct", "0"]),
]
WARM_STEP = ("sweep fig11", ["sweep", "--grid", "fig11", "--sizes", "8", "--per-node", "2",
                             "--seeds", "0", "--out", "fig11.jsonl"])

#: Runs in a fresh interpreter: per step its label, exit code, whether
#: numpy was loaded after it and which of the watched modules (engines
#: and tree layer) were, as one JSON line on stdout's last line.
CHILD = """
import contextlib, io, json, sys
steps, engines = json.loads(sys.argv[1]), json.loads(sys.argv[2])
def loaded(label, code):
    return (label, code, "numpy" in sys.modules, [m for m in engines if m in sys.modules])
import repro.cli
report = [loaded("import repro.cli", 0)]
for label, argv in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    report.append(loaded(label, code))
print(json.dumps(report))
"""


def _run_child(steps, cwd):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(steps), json.dumps(WATCHED)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [label for label, *_ in report] == ["import repro.cli"] + [
        label for label, _ in steps
    ]
    assert [(label, code) for label, code, *_ in report if code] == []
    return report


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The sweep interpreter's report, then the read side's (same files)."""
    cwd = tmp_path_factory.mktemp("cold")
    return _run_child(SWEEP_STEPS, cwd), _run_child(READ_STEPS + [WARM_STEP], cwd)


def test_numpy_is_imported_only_by_a_step_that_draws_a_variate(reports):
    sweeps, (*reads, warm) = reports
    assert [label for label, _, numpy, _ in sweeps + reads if numpy] == []
    assert warm[2], "a Poisson sweep draws numpy variates and must import numpy"


def loaded(report, modules):
    """(label, modules loaded) for each step of ``report`` that loaded any."""
    return [(label, hit) for label, _, _, mods in report
            if (hit := [m for m in mods if m in modules])]


def test_the_cli_and_the_read_side_load_no_engine(reports):
    sweeps, (*reads, _) = reports
    assert loaded(sweeps[:1] + reads, ENGINE_MODULES) == []
    assert "repro.core.fast_closed_loop" in sweeps[1][3], "the fig10 sweep runs its engine"


def test_the_cli_and_the_read_side_build_no_tree(reports):
    sweeps, (*reads, _) = reports
    assert loaded(sweeps[:1] + reads, TREE_MODULES) == []
    assert set(TREE_MODULES) <= set(sweeps[1][3]), "the fig10 sweep builds its tree"


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """The modules loaded by a fresh interpreter's protocol-ablation sweep."""
    steps = [("sweep ablation-protocols", ["sweep", "--grid", "ablation-protocols",
                                           "--requests", "10", "--out", "protocols.jsonl"])]
    (_, (_, _, _, modules)) = _run_child(steps, tmp_path_factory.mktemp("ablation"))
    return modules


def test_the_protocol_ablation_loads_no_message_kernel(ablation):
    assert "repro.core.fast_closed_loop" in ablation, "the baselines run on the routed loop"
    assert [m for m in MESSAGE_MODULES if m in ablation] == []


@pytest.fixture(scope="module")
def faulted(tmp_path_factory):
    """The modules loaded by a fresh interpreter's faulted, monitored fig11 sweep."""
    steps = [("sweep fig11 faulted", ["sweep", "--grid", "fig11", "--sizes", "8",
                                      "--per-node", "2", "--seeds", "0", "--faults",
                                      "crash@1:1", "--monitors", "--out", "faulted.jsonl"])]
    (_, (_, _, _, modules)) = _run_child(steps, tmp_path_factory.mktemp("faulted"))
    return modules


def test_a_faulted_monitored_sweep_loads_no_message_engine(faulted):
    assert {"repro.faults", "repro.monitors"} <= set(faulted), "the sweep runs its fault plan"
    assert [m for m in MESSAGE_MODULES if m in faulted] == []


def test_the_flat_sweeps_load_no_message_layer(reports, ablation):
    sweeps, _ = reports
    # Modules accumulate: the report after the directory sweep covers fig10's.
    assert [label for label, *_ in sweeps[1:3]] == ["sweep fig10", "sweep directory"]
    assert "repro.apps.directory" in sweeps[2][3], "the directory sweep runs its engine"
    assert [m for m in MESSAGE_MODULES if m in sweeps[2][3] + ablation] == []


#: Runs in a fresh interpreter: for each grid, the engine and tree modules its
#: cells imported after ``import_engines`` had run, as one JSON line.
PRELOAD_CHILD = """
import dataclasses, json, sys
from repro.sweep.executor import execute_cell, import_engines
from repro.sweep.spec import (
    directory_grid, fig10_grid, fig11_grid, thm319_grid, thm41_grid,
)
engines = json.loads(sys.argv[1])
grids = [
    directory_grid((4,), acquisitions_per_proc=2),
    fig10_grid((4,), requests_per_proc=2),
    dataclasses.replace(
        fig11_grid((8,), per_node=2, seeds=(0,)), faults=("crash@1:1",), monitors=True
    ),
    thm319_grid((8,), requests=6),
    thm41_grid((16,)),
]
late = {}
for spec in grids:
    import_engines(spec)
    before = set(sys.modules)
    for cell in spec.cells():
        execute_cell(cell)
    late[spec.name] = [m for m in engines if m in set(sys.modules) - before]
print(json.dumps(late))
"""


def test_a_sweep_imports_its_engines_before_its_first_cell(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", PRELOAD_CHILD, json.dumps(ENGINE_MODULES + TREE_MODULES)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    late = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(late) == ["directory", "fig10", "fig11", "thm319", "thm41"]
    assert {name: mods for name, mods in late.items() if mods} == {}
