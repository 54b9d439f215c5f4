"""The fault axis on the sweep grid: identity, columns, validation.

The axis contract: fault-free grids are byte-compatible with
pre-fault-axis sweeps (same cell ids, same columns), faulted cells carry
a ``/f[...]`` id suffix plus the recovery-metric columns, and only the
open-loop arrow families accept a fault plan at all.
"""

import dataclasses
import re

import pytest

from repro.errors import SweepError
from repro.sweep.executor import execute_cell
from repro.sweep.families import FAMILIES
from repro.sweep.registry import get_family
from repro.sweep.spec import (
    GRIDS,
    OPEN_LOOP_SCHEDULES,
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    smoke_grid,
)

FAULT_COLUMNS = (
    "requests_lost",
    "messages_dropped",
    "corrections_applied",
    "repairs_run",
    "time_to_recovery",
)


def open_spec(**overrides):
    base = dict(
        name="t",
        graphs=(GraphSpec.of("complete", n=6),),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("poisson", per_node=4, rate_per_node=0.5),),
        seeds=(0,),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_default_spec_is_fault_free_and_unchanged():
    spec = smoke_grid()
    assert spec.faults == ("",)
    assert spec.monitors is False
    cells = spec.cells()
    assert spec.num_cells() == len(cells) == 4
    for cell in cells:
        assert cell.faults == ""
        assert cell.monitors is False
        assert "/f[" not in cell.cell_id


def test_fault_axis_multiplies_the_grid():
    spec = dataclasses.replace(smoke_grid(), faults=("", "loss:0.02"))
    assert spec.num_cells() == 8
    cells = spec.cells()
    assert len(cells) == 8
    # faults is the innermost axis: adjacent cells share the other axes.
    assert cells[0].cell_id + "/f[loss:0.02]" == cells[1].cell_id
    assert [c.index for c in cells] == list(range(8))


def test_fault_label_is_canonicalised_in_cell_id():
    spec = open_spec(faults=("crash@3.0:1,loss:0.020",))
    (cell,) = spec.cells()
    assert cell.faults == "crash@3:1,loss:0.02"
    assert cell.cell_id.endswith("/f[crash@3:1,loss:0.02]")


def test_malformed_plan_rejected_at_spec_build():
    with pytest.raises(SweepError):
        open_spec(faults=("loss:2.0",))


def test_empty_fault_axis_rejected():
    with pytest.raises(SweepError, match="axis must not be empty"):
        open_spec(faults=())


@pytest.mark.parametrize(
    "family,params",
    [
        ("closed_arrow", {"requests_per_proc": 3}),
        ("closed_centralized", {"requests_per_proc": 3}),
        ("directory_arrow", {"acquisitions_per_proc": 2}),
        ("ratio", {"schedule": "one_shot"}),
    ],
)
def test_non_open_loop_families_reject_faults(family, params):
    with pytest.raises(SweepError, match="does not support the fault axis"):
        open_spec(
            trees=("binary",),
            schedules=(ScheduleSpec.of(family, **params),),
            faults=("crash@1.0:0",),
        )


def test_supports_faults_registry_flags():
    assert get_family("poisson").supports_faults
    assert get_family("one_shot").supports_faults
    assert not get_family("closed_arrow").supports_faults
    assert not get_family("directory_arrow").supports_faults


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------
def test_fault_columns_only_on_faulted_rows():
    spec = open_spec(faults=("", "crash@2.0:1,loss:0.02"))
    clean_row, fault_row = (execute_cell(c) for c in spec.cells())
    for col in FAULT_COLUMNS + ("faults",):
        assert col not in clean_row
        assert col in fault_row
    assert fault_row["faults"] == "crash@2:1,loss:0.02"
    assert fault_row["requests"] == clean_row["requests"]
    assert (
        sum(fault_row["latency_hist"])
        == fault_row["requests"] - fault_row["requests_lost"]
    )


@pytest.mark.parametrize("engine", ["fast", "message"])
def test_faulted_rows_engine_independent(engine):
    base = open_spec(faults=("crash@2.0:1,loss:0.02",))
    want = execute_cell(base.cells()[0])
    got = execute_cell(dataclasses.replace(base, engine=engine).cells()[0])
    assert got == want


def test_monitors_flag_reaches_cells_without_changing_identity():
    spec = open_spec(monitors=True)
    (cell,) = spec.cells()
    assert cell.monitors is True
    (bare,) = open_spec().cells()
    assert cell.cell_id == bare.cell_id


@pytest.mark.parametrize("grid", ["directory", "fig9", "thm319", "oneshot", "ablation-trees"])
def test_monitors_on_a_grid_that_attaches_none_are_refused(grid):
    """Monitors are never a silent no-op: a grid with no family that
    attaches one refuses them and names its families."""
    spec = GRIDS[grid]()
    families = sorted({s.family for s in spec.schedules})
    with pytest.raises(SweepError, match=re.escape(f"cell families {families!r} attach none")):
        dataclasses.replace(spec, monitors=True)


@pytest.mark.parametrize("grid", ["fig10", "fig11", "mixed", "smoke"])
def test_monitors_stay_legal_where_a_family_attaches_one(grid):
    assert dataclasses.replace(GRIDS[grid](), monitors=True).monitors


def test_the_monitored_families_are_the_open_loop_ones_and_closed_arrow():
    monitored = {name for name, f in FAMILIES.items() if f.supports_monitors}
    assert monitored == {*OPEN_LOOP_SCHEDULES, "closed_arrow"}
