"""Cell-family registry tests: builtins, new families, custom plugins."""

import math

import pytest

from repro.errors import ReproError, ScheduleError, SweepError
from repro.sweep import (
    CellFamily,
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    directory_grid,
    execute_cell,
    family_names,
    get_family,
    iter_rows,
    register_family,
    run_sweep,
)


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
# registry mechanics
# ----------------------------------------------------------------------
def test_builtin_families_registered():
    names = family_names()
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

    from repro.sweep import registry as reg

    monkeypatch.setattr(reg, "_BOOTSTRAPPED", False)
    real_import = builtins.__import__

    def broken(name, *a, **kw):
        if name == "repro.sweep.families":
            raise ImportError("transient environment breakage")
        return real_import(name, *a, **kw)

    monkeypatch.setattr(builtins, "__import__", broken)
    with pytest.raises(ImportError, match="transient"):
        get_family("poisson")
    # Same real error again — the flag was not latched by the failure.
    with pytest.raises(ImportError, match="transient"):
        get_family("poisson")
    monkeypatch.setattr(builtins, "__import__", real_import)
    assert get_family("poisson").name == "poisson"


def test_duplicate_registration_rejected_unless_replace():
    family = get_family("one_shot")
    with pytest.raises(SweepError):
        register_family(family)
    # replace=True re-registers the identical family: a no-op.
    assert register_family(family, replace=True) is family


def test_custom_family_runs_through_executor(tmp_path):
    def build(cell, derived):
        return {"n": 5}

    def to_row(cell, derived, built):
        return {"n": built["n"], "requests": 1, "answer": derived % 97}

    register_family(
        CellFamily(
            name="test_constant",
            accepted=frozenset({"level"}),
            build=build,
            to_row=to_row,
        ),
        replace=True,
    )
    row = one_cell(ScheduleSpec.of("test_constant", level=3))
    assert row["answer"] == row["cell_seed"] % 97
    assert row["schedule"] == "test_constant(level=3)"
    with pytest.raises(SweepError):
        ScheduleSpec.of("test_constant", levle=3)


def test_validator_hook_rejects_bad_values():
    with pytest.raises(SweepError):
        ScheduleSpec.of("directory_arrow", acquisitions_per_proc=0)
    with pytest.raises(SweepError):
        ScheduleSpec.of("closed_arrow", requests_per_proc=-5)
    with pytest.raises(SweepError):
        ScheduleSpec.of("ratio", schedule="closed_arrow")
    with pytest.raises(SweepError):
        ScheduleSpec.of("ratio", protocol="ivy")


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
    assert a.pop("engine") == "fast" and b.pop("engine") == "message"
    assert a == b


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
    from repro.sweep import DEFAULT_BINS

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
