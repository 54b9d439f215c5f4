"""numpy loads only where a numpy variate (or a dense matrix) is drawn.

A fresh interpreter imports :mod:`repro.cli` and runs, through ``main``,
the commands of a §5 closed-loop or directory sweep on the simulated SP2
(complete graph, unit latency: no random draw) and the read side of the
results store; none of them may import numpy.  A one-cell Poisson sweep
must import it — the guard is not vacuous.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FIG10 = ["--grid", "fig10", "--sizes", "4", "--requests-per-proc", "5"]
#: (label, argv) in order; each step may read the files earlier ones wrote.
COLD_STEPS = [
    ("sweep fig10", ["sweep", *FIG10, "--out", "fig10.jsonl"]),
    ("sweep directory", ["sweep", "--grid", "directory", "--sizes", "4",
                         "--acquisitions-per-proc", "3", "--out", "directory.jsonl"]),
    ("sweep fig10 shard 0", ["sweep", *FIG10, "--shard", "0/2", "--out", "part.jsonl"]),
    ("sweep fig10 shard 1", ["sweep", *FIG10, "--shard", "1/2", "--out", "part.jsonl"]),
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

#: Runs in the fresh interpreter: each step's exit code and whether numpy
#: was loaded after it, as one JSON line on stdout's last line.
CHILD = """
import contextlib, io, json, sys
import repro.cli
report = [("import repro.cli", 0, "numpy" in sys.modules)]
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    report.append((label, code, "numpy" in sys.modules))
print(json.dumps(report))
"""


def test_numpy_is_imported_only_by_a_step_that_draws_a_variate(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    steps = json.dumps(COLD_STEPS + [WARM_STEP])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, steps], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [label for label, _, _ in report[1:]] == [label for label, _ in COLD_STEPS] + [
        WARM_STEP[0]
    ]
    assert [(label, code) for label, code, _ in report if code] == []
    *cold, (_, _, warm) = report
    assert [label for label, _, loaded in cold if loaded] == []
    assert warm, "a Poisson sweep draws numpy variates and must import numpy"
