"""Cell-family table tests: builtins, kinds, injected families."""

import math
import os
import subprocess
import sys

import pytest

from repro.errors import ReproError, ScheduleError, SweepError
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    directory_grid,
    execute_cell,
    get_family,
    run_sweep,
)
from repro.sweep.families import FAMILIES
from repro.sweep.persist import iter_rows
from repro.sweep.registry import CellFamily, count
from repro.sweep.spec import LOWERBOUND_AXES


def one_cell(schedule, *, graph=None, tree="bfs", seed=0, engine="fast"):
    spec = SweepSpec(
        name="one",
        graphs=(graph or GraphSpec.of("complete", n=8),),
        trees=(tree,),
        schedules=(schedule,),
        seeds=(seed,),
        engine=engine,
    )
    (cell,) = spec.cells()
    return execute_cell(cell)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def test_builtin_families_registered():
    names = sorted(FAMILIES)
    for expected in (
        "one_shot",
        "sequential",
        "poisson",
        "bursty",
        "hotspot",
        "random",
        "closed_arrow",
        "closed_centralized",
        "directory_arrow",
        "directory_home",
        "ratio",
        "lowerbound",
    ):
        assert expected in names


def test_unknown_family_raises_sweep_error():
    with pytest.raises(SweepError):
        get_family("thundering_herd")
    with pytest.raises(SweepError):
        ScheduleSpec.of("thundering_herd")


def test_sweep_error_is_backward_compatible():
    # Callers that wrapped spec construction in `except ScheduleError`
    # keep working: SweepError subclasses it (and ReproError).
    assert issubclass(SweepError, ScheduleError)
    assert issubclass(SweepError, ReproError)
    with pytest.raises(ScheduleError):
        ScheduleSpec.of("poisson", rate_pernode=2.0)


def test_bootstrap_failure_is_not_latched(monkeypatch):
    """A failed builtin import must resurface on the next lookup, not
    decay into 'unknown cell family ... know []'."""
    import builtins

    real_import = builtins.__import__

    def broken(name, *a, **kw):
        if name == "repro.sweep.families":
            raise ImportError("transient environment breakage")
        return real_import(name, *a, **kw)

    monkeypatch.setattr(builtins, "__import__", broken)
    with pytest.raises(ImportError, match="transient"):
        get_family("poisson")
    # Same real error again — nothing latched the failure.
    with pytest.raises(ImportError, match="transient"):
        get_family("poisson")
    monkeypatch.setattr(builtins, "__import__", real_import)
    assert get_family("poisson").name == "poisson"


def test_duplicate_registration_rejected_unless_replace():
    """One table, no runtime registration: every entry is filed under its
    own name, so a lookup can never return another family."""
    for name, family in FAMILIES.items():
        assert family.name == name
        assert get_family(name) is family


def test_custom_family_runs_through_executor(monkeypatch):
    def build(cell, derived):
        return {"n": 5}

    def to_row(cell, derived, built):
        return {"n": built["n"], "requests": 1, "answer": derived % 97}

    monkeypatch.setitem(
        FAMILIES,
        "test_constant",
        CellFamily(name="test_constant", params={"level": count}, build=build, to_row=to_row),
    )
    row = one_cell(ScheduleSpec.of("test_constant", level=3))
    assert row["answer"] == row["cell_seed"] % 97
    assert row["schedule"] == "test_constant(level=3)"
    with pytest.raises(SweepError):
        ScheduleSpec.of("test_constant", levle=3)
    with pytest.raises(SweepError, match="level must be a positive integer"):
        ScheduleSpec.of("test_constant", level=2.5)


def test_validator_hook_rejects_bad_values():
    with pytest.raises(SweepError):
        ScheduleSpec.of("directory_arrow", acquisitions_per_proc=0)
    with pytest.raises(SweepError):
        ScheduleSpec.of("closed_arrow", requests_per_proc=-5)
    with pytest.raises(SweepError):
        ScheduleSpec.of("ratio", schedule="closed_arrow")
    with pytest.raises(SweepError):
        ScheduleSpec.of("ratio", protocol="ivy")


_NO_FAMILIES = """
import sys
import repro.results, repro.sweep
assert "repro.sweep.families" not in sys.modules, "loaded on import"
if sys.argv[1:]:
    from repro.cli import main
    assert main(sys.argv[1:]) == 0
    assert "repro.sweep.families" not in sys.modules, sys.argv[1:]
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["results", "table", "smoke", "--percentiles"],
        ["results", "plot", "smoke"],
        ["results", "compare", "--a", "smoke", "--b", "smoke", "--max-delta-pct", "0"],
    ],
)
def test_families_load_on_first_lookup_only(tmp_path, argv):
    """Importing the sweep and results packages, and reading a stored run
    back, compile none of the simulators behind the cell families."""
    import shutil
    from pathlib import Path

    import repro

    store = tmp_path / "store"
    shutil.copytree(Path(__file__).parents[1] / "golden" / "results_store", store)
    src = str(Path(repro.__file__).parents[1])
    argv = [*argv, "--store", str(store)] if argv else []
    done = subprocess.run(
        [sys.executable, "-c", _NO_FAMILIES, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# directory families (§5.1)
# ----------------------------------------------------------------------
def test_directory_grid_rows_hold_exclusion_on_every_row(tmp_path):
    out = tmp_path / "dir.jsonl"
    spec = directory_grid(sizes=(2, 4, 8), acquisitions_per_proc=10)
    summary = run_sweep(spec, str(out))
    assert summary["written"] == 6
    rows = list(iter_rows(str(out)))
    assert {r["protocol"] for r in rows} == {"arrow-directory", "home-directory"}
    for r in rows:
        assert r["exclusion_ok"] is True
        assert r["requests"] == r["n"] * 10
        assert r["messages_sent"] > 0
        assert r["makespan"] > 0


def test_directory_arrow_cheaper_than_home_per_acquisition():
    arrow = one_cell(ScheduleSpec.of("directory_arrow", acquisitions_per_proc=20))
    home = one_cell(ScheduleSpec.of("directory_home", acquisitions_per_proc=20))
    assert arrow["msgs_per_acquisition"] < home["msgs_per_acquisition"]


def test_directory_home_out_of_range_home_fails_loudly():
    with pytest.raises(SweepError):
        one_cell(ScheduleSpec.of("directory_home", home=99))


@pytest.mark.parametrize("engine", ["fast", "message"])
def test_closed_centralized_out_of_range_center_fails_at_build_time(engine):
    with pytest.raises(SweepError, match="center 99 outside the graph's"):
        one_cell(ScheduleSpec.of("closed_centralized", center=99), engine=engine)


def test_directory_families_ignore_engine_axis():
    rows = [
        one_cell(
            ScheduleSpec.of("directory_arrow", acquisitions_per_proc=5),
            engine=engine,
        )
        for engine in ("fast", "message")
    ]
    assert not get_family("directory_arrow").uses_engine
    a, b = rows
    assert a == b


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_no_family_row_names_an_engine(name):
    """A row holds only what its cell computed: no family writes an
    ``engine`` column, so the fast and the message engine give one row."""
    graph, tree = LOWERBOUND_AXES if name == "lowerbound" else (None, "bfs")
    schedule = ScheduleSpec.of(name, **({"D": 4} if name == "lowerbound" else {}))
    fast, message = (
        one_cell(schedule, graph=graph, tree=tree, engine=engine)
        for engine in ("fast", "message")
    )
    assert "engine" not in fast
    assert fast == message


# ----------------------------------------------------------------------
# the §1.1 NTA/Ivy adaptive-pointer baseline, a protocol of ``ratio``
# ----------------------------------------------------------------------
def adaptive_and_arrow(n, **params):
    g = GraphSpec.of("complete", n=n)
    return [
        one_cell(ScheduleSpec.of("ratio", protocol=p, **params), graph=g)
        for p in ("adaptive", "arrow")
    ]


def test_adaptive_vs_arrow_message_sanity_on_complete_graphs():
    """Path shorting keeps per-op messages logarithmic; same ballpark as
    arrow on a complete graph (where the tree overlay is shallow too)."""
    for n in (8, 32):
        adaptive, arrow = adaptive_and_arrow(
            n, schedule="poisson", count=10 * n, rate=0.5 * n
        )
        assert adaptive["requests"] == arrow["requests"] == 10 * n
        per_op = adaptive["messages_sent"] / adaptive["requests"]
        assert 0 < per_op <= 2.0 * math.log2(n)
        ratio = adaptive["messages_sent"] / arrow["messages_sent"]
        assert 0.5 <= ratio <= 1.5


def test_adaptive_rows_carry_latency_histogram_invariant():
    from repro.sweep.stats import DEFAULT_BINS

    row, _ = adaptive_and_arrow(8, schedule="poisson", count=40, rate=4.0)
    assert row["protocol"] == "adaptive"
    assert len(row["latency_hist"]) == DEFAULT_BINS
    assert sum(row["latency_hist"]) == row["requests"]


def test_adaptive_nested_schedule_families():
    for schedule in ("one_shot", "sequential"):
        adaptive, arrow = adaptive_and_arrow(8, schedule=schedule)
        assert adaptive["requests"] == arrow["requests"] == 8
        # The paired cells replay one schedule against one opt bracket.
        assert adaptive["opt_upper"] == arrow["opt_upper"]


# ----------------------------------------------------------------------
# ratio rows on weighted graphs: every column in one unit
# ----------------------------------------------------------------------
def ratio_on_path(weight, **params):
    return one_cell(
        ScheduleSpec.of("ratio", count=8, **params),
        graph=GraphSpec.of("path", n=17, weight=weight),
    )


@pytest.mark.parametrize("protocol", ["arrow", "adaptive", "centralized"])
@pytest.mark.parametrize("schedule", ["one_shot", "sequential"])
def test_ratio_bracket_is_unit_free_on_weighted_paths(protocol, schedule):
    """Delays follow the weights, so doubling every weight doubles cost and
    opt alike: the weight-2 path's exact bracket is the unit path's.  (The
    ``random`` workload draws from ``seed + D`` and so differs by design.)"""
    unit, doubled = (
        ratio_on_path(w, protocol=protocol, schedule=schedule) for w in (1.0, 2.0)
    )
    assert doubled["total_latency"] == 2.0 * unit["total_latency"]
    assert (doubled["ratio_lo"], doubled["ratio_hi"]) == (unit["ratio_lo"], unit["ratio_hi"])
    assert doubled["ratio_lo"] == doubled["ratio_hi"] >= 1.0


@pytest.mark.parametrize("protocol", ["arrow", "adaptive", "centralized"])
def test_ratio_sync_latency_runs_at_delay_equals_weight(protocol):
    unit, doubled = (
        ratio_on_path(w, protocol=protocol, schedule="one_shot", latency_lo=0.5)
        for w in (1.0, 2.0)
    )
    assert doubled["sync_latency"] == 2.0 * unit["sync_latency"]
