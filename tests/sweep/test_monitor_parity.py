"""Monitor transparency: monitored sweeps write byte-identical JSONL.

Monitors are pure observers — the differential here runs the same grid
with monitors off and on, for every engine, and requires the *files* to
match byte for byte (not just row-wise), including on faulted grids
where the monitor also audits the recovery path.
"""

import dataclasses

import pytest

from repro.sweep.executor import run_sweep
from repro.sweep.spec import smoke_grid


def sweep_bytes(tmp_path, spec, name):
    out = str(tmp_path / f"{name}.jsonl")
    summary = run_sweep(spec, out, resume=False)
    assert summary["written"] == spec.num_cells()
    with open(out, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("engine", ["fast", "message"])
def test_monitors_do_not_change_fault_free_jsonl(tmp_path, engine):
    spec = smoke_grid(engine=engine)
    off = sweep_bytes(tmp_path, spec, f"{engine}-off")
    on = sweep_bytes(
        tmp_path, dataclasses.replace(spec, monitors=True), f"{engine}-on"
    )
    assert on == off


def test_monitors_do_not_change_faulted_jsonl(tmp_path):
    spec = dataclasses.replace(
        smoke_grid(), faults=("", "crash@3.0:1,loss:0.02")
    )
    off = sweep_bytes(tmp_path, spec, "faulted-off")
    on = sweep_bytes(
        tmp_path, dataclasses.replace(spec, monitors=True), "faulted-on"
    )
    assert on == off


def test_engines_agree_on_monitored_faulted_grid(tmp_path):
    spec = dataclasses.replace(
        smoke_grid(),
        faults=("crash@3.0:1,loss:0.02",),
        monitors=True,
    )
    fast = sweep_bytes(tmp_path, spec, "fast")
    message = sweep_bytes(
        tmp_path, dataclasses.replace(spec, engine="message"), "message"
    )
    assert fast == message
