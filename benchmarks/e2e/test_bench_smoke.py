"""Tier-1 smoke test: the benchmark harness runs, verifies and attributes.

Runs ``run.py`` at 2% scale on one write-side and the read-side workload
and checks the contract other PRs rely on: the metric and workload names
are exactly those ``BENCHMARK.json`` declares, nothing failed, and the
trace is well formed (spans nest, self times are non-negative, the
layers account for the traced wall).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def test_bench_smoke(tmp_path):
    out, trace = tmp_path / "bench.json", tmp_path / "trace.json"
    ran = ["closed_fig10", "store_readback"]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.02",
         "--repeats", "1", "--workloads", ",".join(ran),
         "--out", str(out), "--trace-out", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    doc = json.loads(out.read_text())
    assert doc["header"]["catalogue"] == [w["name"] for w in declared["workloads"]]
    assert list(doc["workloads"]) == ran
    for name, result in doc["workloads"].items():
        assert list(result["end_to_end"]) == [
            m["name"] for m in declared["end_to_end"]
        ]
        assert list(result["per_layer"]) == [
            m["name"] for m in declared["per_layer"]
        ]
        for metric in [name, *result["end_to_end"], *result["per_layer"]]:
            assert NAME.fullmatch(metric), metric
            assert metric in proc.stdout
        assert result["failed_frac"] == 0 and result["failed"] == 0
        layers = result["per_layer"]
        assert layers["trace.unattributed_share"]["value"] < 0.10
        assert layers["core.engine_mismatch"]["value"] == 0
    # The read-side workload simulates nothing; the write side does.
    per_layer = {n: r["per_layer"] for n, r in doc["workloads"].items()}
    assert per_layer["store_readback"]["core.engine_s"]["value"] == 0
    assert per_layer["closed_fig10"]["core.engine_s"]["value"] > 0

    spans = json.loads(trace.read_text())
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end"] - s["start"] for s in spans if not s["probe"]}
    assert {s["workload"] for s in spans} == set(ran)
    for s in spans:
        assert s["end"] >= s["start"]
        if s["probe"] or s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        assert not parent["probe"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
        own[parent["id"]] -= s["end"] - s["start"]
    assert all(t >= -1e-9 for t in own.values())
