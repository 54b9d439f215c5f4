"""CLI smoke tests (tiny parameter sets)."""

import json

import pytest

from repro.cli import main


def test_fig10_command(capsys):
    assert main(["fig10", "--procs", "2,6", "--requests-per-proc", "20"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "centralized" in out


def test_fig11_command(capsys):
    assert main(["fig11", "--procs", "2,6", "--requests-per-proc", "20"]) == 0
    out = capsys.readouterr().out
    assert "mean_hops" in out and "centralized" not in out


#: Seed-0 values of the three measured figures, bit for bit as the
#: retired per-figure loops printed them (series keyed by cell family).
PINNED_FIGURES = [
    (
        ["fig10", "--procs", "2,8,24", "--requests-per-proc", "80"],
        {
            "closed_arrow": [
                180.89999999999895, 167.49999999999866, 179.3999999999984],
            "closed_centralized": [
                184.49999999999915, 184.9999999999992, 193.59999999999968],
        },
    ),
    (
        ["fig11", "--procs", "2,8,24", "--requests-per-proc", "80"],
        {"closed_arrow": [0.93125, 0.5953125, 0.6598958333333333]},
    ),
    (
        ["fig11", "--procs", "2,8,24", "--requests-per-proc", "80",
         "--metric", "local_find_fraction"],
        {"closed_arrow": [0.06875, 0.571875, 0.5895833333333333]},
    ),
    (
        ["directory", "--procs", "2,4,8", "--acquisitions-per-proc", "20"],
        {
            "directory_arrow": [
                58.500000000000036, 123.59999999999982, 252.69999999999936],
            "directory_home": [
                107.39999999999978, 261.4999999999991, 565.9000000000052],
        },
    ),
    (
        ["directory", "--procs", "2,4,8", "--acquisitions-per-proc", "20",
         "--metric", "msgs_per_acquisition"],
        {
            "directory_arrow": [1.75, 2.4, 2.71875],
            "directory_home": [3.85, 3.95, 3.975],
        },
    ),
]


@pytest.mark.parametrize("argv,expected", PINNED_FIGURES)
def test_figure_commands_print_pinned_values(tmp_path, argv, expected):
    path = tmp_path / "out.json"
    assert main(["--json", str(path), *argv]) == 0
    (doc,) = json.loads(path.read_text())
    assert doc["experiment_id"] == argv[0]
    assert {s["name"]: s["ys"] for s in doc["series"]} == expected


@pytest.mark.parametrize(
    "command,sizes,series,last_y",
    [
        ("fig10", [2, 4, 8, 16, 32, 48, 64, 76],
         "closed_centralized", 2281.5999999990213),
        ("fig11", [2, 4, 8, 16, 32, 48, 64, 76],
         "closed_arrow", 0.7103508771929825),
        ("directory", [2, 4, 8, 12, 16], "directory_home", 2941.699999999869),
    ],
)
def test_bare_figure_commands_keep_the_published_defaults(
    tmp_path, command, sizes, series, last_y
):
    """No flags = the paper's sizes x 300 requests (50 acquisitions)."""
    path = tmp_path / "out.json"
    assert main(["--json", str(path), command]) == 0
    (doc,) = json.loads(path.read_text())
    (picked,) = (s for s in doc["series"] if s["name"] == series)
    assert picked["xs"] == [float(n) for n in sizes]
    assert picked["ys"][-1] == last_y


#: Every series of the theorem and ablation commands at their published
#: defaults, by ``--json`` document.  All but ``oneshot`` and
#: ``sequential`` are bit for bit what the hand-written experiment loops
#: these commands ran before they became grid presets printed; those two
#: drew all their x points from one shared RNG stream, which independent
#: cells cannot replay.
PINNED_TABLES = {
    "fig9": {
        "fig9": {
            "arrow cost": [164.0],
            "sweep target (k sweeps)": [256.0],
            "opt upper bound": [66.0],
            "opt lower bound": [64.0],
            "comb Manhattan weight": [71.0],
            "measured ratio": [2.484848484848485],
            "simulated cost (fast)": [66.0],
        },
    },
    "oneshot": {
        "oneshot": {
            "ratio (vs opt upper bd)": [
                1.4444444444444444, 2.1666666666666665, 1.9166666666666667,
                2.0555555555555554, 1.838235294117647],
            "ratio (vs opt lower bd)": [
                1.4444444444444444, 2.1666666666666665, 2.7058823529411766,
                2.3870967741935485, 1.9841269841269842],
            "s log|R| ceiling": [1248.0, 1872.0, 2496.0, 3120.0, 3744.0],
        },
    },
    "thm319": {
        "thm319": {
            "ratio (vs opt upper bd)": [
                1.2515435453751758, 1.434791622114084, 1.0862979698561461,
                1.3261603463274145, 1.1310140550764718],
            "ratio (vs opt lower bd)": [
                4.75, 6.0, 3.5436587836543683, 4.454376360260899,
                4.053283289090023],
            "O(s log D) ceiling": [372.0, 444.0, 516.0, 588.0, 660.0],
        },
    },
    "thm321": {
        "thm321": {
            "sync total latency": [38.0, 96.0, 164.0, 368.0, 667.0],
            "async total latency": [
                31.217291411054823, 70.70419411179158, 131.55009065536635,
                257.568679241642, 555.4533263514262],
            "async ratio (vs opt lower bd)": [
                3.902161426381853, 4.419012131986974, 2.8424916722037645,
                3.1176843368412834, 3.37542681494708],
        },
    },
    "thm41": {
        "thm41": {
            "literal construction": [
                2.0, 2.0, 1.8351254480286738, 1.9284369114877589],
            "bitonic layered": [
                2.588235294117647, 2.523076923076923, 2.857142857142857,
                2.963972736124635],
            "log D / log log D target": [
                2.0, 2.3211168434072498, 2.6666666666666665, 3.010299956639812],
            "literal (simulated)": [
                1.0, 1.0, 1.842293906810036, 1.9303201506591336],
            "layered (simulated)": [
                1.0, 1.0, 0.9961389961389961, 0.9990262901655307],
        },
    },
    "thm42": {
        "thm42": {
            "measured ratio": [2.0, 2.0, 4.0, 8.0],
            "measured tree stretch": [1.0, 2.0, 4.0, 8.0],
            "simulated ratio": [1.0, 2.0, 4.0, 8.0],
        },
    },
    "sequential": {
        "sequential": {
            "max per-op latency": [2.0, 12.0, 7.0],
            "tree diameter D": [2.0, 15.0, 7.0],
            "total ratio (vs opt upper bd)": [
                1.8717948717948718, 1.5753424657534247, 1.7160493827160495],
            "tree stretch s": [2.0, 11.0, 7.0],
        },
    },
    "ablations": {
        "ablation-trees": {
            "stretch": [6.0, 9.0, 20.0],
            "arrow total latency": [337.0, 343.0, 373.0],
        },
        "ablation-protocols": {
            "messages/op": [1.95, 1.525, 1.87, 1.98],
            "latency/op": [1.95, 1.525, 1.87, 1.955],
        },
        "ablation-service-time": {
            "closed_arrow": [
                41.0, 297.2500000000042, 378.10000000000304, 495.999999999994,
                658.5999999999913],
            "closed_centralized": [
                300.0, 361.5500000000477, 721.6000000000953,
                1441.6000000001904, 2881.800000000381],
        },
    },
}


@pytest.mark.parametrize("command", sorted(PINNED_TABLES))
def test_paper_commands_print_pinned_values(published, command):
    assert published(command) == PINNED_TABLES[command]


def test_directory_command_fails_on_exclusion_violation(monkeypatch):
    from repro.apps.directory import DirectoryResult

    monkeypatch.setattr(DirectoryResult, "exclusion_holds", lambda self: False)
    with pytest.raises(SystemExit) as exc:
        main(["directory", "--procs", "2", "--acquisitions-per-proc", "2"])
    assert "exclusion_ok is false" in str(exc.value.code)
    assert "directory_arrow" in str(exc.value.code)  # the cell is named


def test_fig9_command(capsys):
    assert main(["fig9", "-D", "16", "-k", "2", "--variant", "layered"]) == 0
    out = capsys.readouterr().out
    assert "measured ratio" in out
    assert "*" in out  # the picture


def test_thm319_command(capsys):
    assert main(["thm319", "--diameters", "8,16", "--requests", "12"]) == 0
    assert "ceiling" in capsys.readouterr().out


def test_thm42_command(capsys):
    assert main(["thm42", "--stretches", "1,2"]) == 0
    assert "stretch" in capsys.readouterr().out


def test_sequential_command(capsys):
    assert main(["sequential"]) == 0
    assert "Sequential" in capsys.readouterr().out


def test_json_output(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["--json", str(path), "fig11", "--procs", "2,4",
                 "--requests-per-proc", "10"]) == 0
    docs = json.loads(path.read_text())
    assert docs[0]["experiment_id"] == "fig11"


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["nope"])
    # The retired numpy engine is a usage error, not an alias.
    for argv in (["sweep", "--engine", "batch"], ["fig10", "--engine", "batch"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_directory_command(capsys):
    assert main(["directory", "--procs", "2,4", "--acquisitions-per-proc", "10"]) == 0
    assert "home-based" in capsys.readouterr().out


def test_oneshot_command(capsys):
    assert main(["oneshot"]) == 0
    assert "One-shot" in capsys.readouterr().out


def test_fig11_fast_engine_command(capsys):
    assert main(["fig11", "--procs", "2,6", "--requests-per-proc", "20",
                 "--engine", "fast"]) == 0
    assert "mean_hops" in capsys.readouterr().out


def test_fig9_engine_cross_check_command(capsys):
    assert main(["fig9", "-D", "16", "-k", "2"]) == 0
    assert "simulated cost (fast)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the two command tables, dispatched over a stub sweep
# ----------------------------------------------------------------------
@pytest.fixture
def stubbed(monkeypatch):
    """Stub the sweep every table command runs; returns the swept specs.

    The stub yields one row per cell carrying every column a figure
    reads, so each command's tables render without simulating anything.
    """
    import repro.sweep
    from repro.results import FIGURES

    columns = set()
    for fig in FIGURES.values():
        columns |= {fig.metric, fig.x}
        columns |= {col for _, col, *_ in fig.series}
    specs = []

    def iter_sweep(spec):
        specs.append(spec)
        for cell in spec.cells():
            yield {
                **dict.fromkeys(columns, 2.0),
                "schedule": cell.schedule.label(),
                "tree": cell.tree,
                "graph": cell.graph.label(),
                "seed": cell.seed,
                "variant": cell.schedule.kwargs().get("variant"),
                "protocol": cell.schedule.kwargs().get("protocol", "arrow"),
            }

    monkeypatch.setattr(repro.sweep, "iter_sweep", iter_sweep)
    return specs


def _table_commands():
    from repro import cli

    return [*cli._FIGURES, *cli._PRESETS]


def _tables_of(name):
    """The figures command ``name`` prints (one ``--json`` document each):
    a preset's grids name their figures."""
    import repro.sweep
    from repro import cli

    if name not in cli._PRESETS:
        return [name]
    specs = [getattr(repro.sweep, grid)() for grid in cli._PRESETS[name][2]]
    return [(s if isinstance(s, tuple) else (s,))[0].name for s in specs]


@pytest.mark.parametrize("name", [*_table_commands(), "all"])
def test_every_table_command_dispatches(stubbed, tmp_path, capsys, name):
    path = tmp_path / "out.json"
    assert main(["--json", str(path), name]) == 0
    out = capsys.readouterr().out
    docs = json.loads(path.read_text())
    names = _table_commands() if name == "all" else [name]
    tables = [t for n in names for t in _tables_of(n)]
    assert [d["experiment_id"] for d in docs] == tables
    assert all(d["series"] for d in docs)
    assert f"wrote {path}" in out
    # One in-memory sweep per grid; the service-time ablation is five.
    assert len(stubbed) == sum(5 if t == "ablation-service-time" else 1 for t in tables)
    if name in ("fig9", "all"):
        assert "t=  0 |*" in out and "measured ratio" in out  # picture + table
        (doc,) = (d for d in docs if d["experiment_id"] == "fig9")
        assert [s["name"] for s in doc["series"]][:2] == [
            "arrow cost", "sweep target (k sweeps)"]
    if name in ("thm319", "all"):
        (spec,) = (s for s in stubbed if s.name == "thm319")
        assert [g.label() for g in spec.graphs][0] == "path(n=9)"
        assert [s.label() for s in spec.schedules] == ["ratio(count=60)"]


def test_experiment_flags_reach_the_producer(stubbed):
    assert main(["thm42", "--stretches", "1,2"]) == 0
    assert main(["thm321", "--diameters", "8", "--requests", "5"]) == 0
    assert main(["fig9", "-D", "8", "-k", "2", "--variant", "literal"]) == 0
    assert [
        ([g.label() for g in s.graphs], [c.label() for c in s.schedules])
        for s in stubbed
    ] == [
        (["path(n=1)"], ["lowerbound(D=64,s=1,variant=stretch)",
                          "lowerbound(D=128,s=2,variant=stretch)"]),
        (["path(n=9)"], ["ratio(count=5,latency_lo=0.2)"]),
        (["path(n=1)"], ["lowerbound(D=8,k=2,variant=literal)"]),
    ]


def test_fig9_json_holds_the_record(tmp_path):
    """fig9 prints a picture of its own; its table must still reach
    ``--json`` like every other command's."""
    path = tmp_path / "fig9.json"
    assert main(["--json", str(path), "fig9", "-D", "16", "-k", "2"]) == 0
    (doc,) = json.loads(path.read_text())
    assert doc["experiment_id"] == "fig9" and doc["xlabel"] == "D"
    ys = {s["name"]: s["ys"] for s in doc["series"]}
    assert ys["arrow cost"] == [34.0] and ys["sweep target (k sweeps)"] == [32.0]


def test_sweep_command_writes_and_resumes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--grid", "fig11", "--sizes", "4,8", "--per-node", "5",
            "--seeds", "0", "--out", str(out)]
    assert main(argv) == 0
    assert "2 written" in capsys.readouterr().out
    first = out.read_bytes()
    assert main(argv) == 0
    assert "2 skipped" in capsys.readouterr().out
    assert out.read_bytes() == first
    # Several workers: the same bytes, merged from shard files beside
    # --out; a rerun re-merges them and recomputes no cell.
    out.unlink()
    argv += ["--workers", "2"]
    assert main(argv) == 0
    assert "2 rows merged from 2 shard(s)" in capsys.readouterr().out
    assert out.read_bytes() == first
    out.unlink()
    monkeypatch.setattr("repro.sweep.executor.execute_cell", None)
    assert main(argv) == 0
    assert "2 rows merged from 2 shard(s)" in capsys.readouterr().out
    assert out.read_bytes() == first
    docs = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert [d["graph"] for d in docs] == ["complete(n=4)", "complete(n=8)"]


def test_sweep_command_honours_seeds_on_smoke_grid(tmp_path):
    out = tmp_path / "smoke.jsonl"
    assert main(["sweep", "--grid", "smoke", "--seeds", "5", "--out", str(out)]) == 0
    docs = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert {d["seed"] for d in docs} == {5}


def test_sweep_command_rejects_fig11_flags_on_other_grids(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--grid", "smoke", "--sizes", "4,8",
              "--out", str(tmp_path / "x.jsonl")])
    # An empty list is a usage error, never a silent fall-back to the
    # preset's default sizes/seeds.
    for flags in (["--sizes", ""], ["--sizes", ","], ["--seeds", ""]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", "fig11", *flags,
                  "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--grid", "fig11", "--per-node", "0"], "per_node must be a positive integer"),
        (["sweep", "--grid", "fig10", "--requests-per-proc", "0"], "requests_per_proc must be"),
        (["sweep", "--grid", "smoke", "--seeds", "0,0"], "seeds axis repeats 0"),
        (["sweep", "--grid", "smoke", "--sizes", "4,8"], "--sizes does not apply"),
        (["results", "ingest", "x.jsonl", "--grid", "fig11", "--per-node", "0"], "per_node must"),
        (["thm319", "--requests", "0"], "count must be a positive integer"),
        (["fig10", "--per-node", "3"], "--per-node does not apply"),
    ],
)
def test_a_bad_grid_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    """A grid that cannot be built ends in one usage line (exit 2), never a
    traceback, and before any output file exists."""
    out = tmp_path / "x.jsonl"
    argv = [str(out) if a == "x.jsonl" else a for a in argv]
    if argv[0] == "sweep":
        argv += ["--out", str(out)]
    if argv[0] == "results":
        argv += ["--store", str(tmp_path / "store")]
    with pytest.raises(SystemExit) as exc:
        main(["--json", str(tmp_path / "t.json"), *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_verify_accepts_identical_files(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["sweep", "--grid", "smoke", "--engine", "fast",
                 "--out", str(a)]) == 0
    assert main(["sweep", "--grid", "smoke", "--engine", "message",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["sweep-verify", "--a", str(a), "--b", str(b),
                 "--expect-cells", "4"]) == 0
    assert "4 rows identical" in capsys.readouterr().out


def test_sweep_verify_flags_divergent_rows(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["sweep", "--grid", "smoke", "--out", str(a)]) == 0
    rows = [json.loads(line) for line in a.read_text().strip().split("\n")]
    rows[1]["makespan"] += 1.0
    b.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    capsys.readouterr()
    assert main(["sweep-verify", "--a", str(a), "--b", str(b)]) == 1
    err = capsys.readouterr().err
    assert "makespan" in err and "FAILED" in err


def test_sweep_verify_flags_wrong_cell_count(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    assert main(["sweep", "--grid", "smoke", "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["sweep-verify", "--a", str(a), "--b", str(a),
                 "--expect-cells", "7"]) == 1
    assert "expected 7 rows" in capsys.readouterr().err


def test_sweep_verify_flags_corrupt_histogram(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    assert main(["sweep", "--grid", "smoke", "--out", str(a)]) == 0
    rows = [json.loads(line) for line in a.read_text().strip().split("\n")]
    rows[0]["latency_hist"][0] += 2  # mass no longer matches requests
    b = tmp_path / "b.jsonl"
    b.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    capsys.readouterr()
    assert main(["sweep-verify", "--a", str(b), "--b", str(b)]) == 1
    assert "latency_hist" in capsys.readouterr().err


def test_sweep_verify_and_merge_reject_exclusion_violation(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    assert main(["sweep", "--grid", "directory", "--sizes", "2,4",
                 "--acquisitions-per-proc", "5", "--out", str(a)]) == 0
    rows = [json.loads(line) for line in a.read_text().strip().split("\n")]
    rows[2]["exclusion_ok"] = False
    b = tmp_path / "b.jsonl"
    b.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    capsys.readouterr()
    assert main(["sweep-verify", "--a", str(b), "--b", str(b)]) == 1
    err = capsys.readouterr().err
    assert "exclusion_ok is false" in err and rows[2]["cell_id"] in err
    merged = tmp_path / "merged.jsonl"
    assert main(["sweep-merge", str(b), "--out", str(merged),
                 "--expect-cells", "4"]) == 1
    err = capsys.readouterr().err
    assert "exclusion_ok is false" in err and rows[2]["cell_id"] in err
    assert not merged.exists()
    assert main(["sweep-merge", str(a), "--out", str(merged),
                 "--expect-cells", "4"]) == 0


def test_sweep_orchestrated_command_matches_one_shot(tmp_path, capsys):
    one_shot = tmp_path / "one_shot.jsonl"
    merged = tmp_path / "merged.jsonl"
    assert main(["sweep", "--grid", "smoke", "--out", str(one_shot)]) == 0
    assert main(["sweep", "--grid", "smoke", "--shards", "2", "--workers", "2",
                 "--out", str(merged)]) == 0
    captured = capsys.readouterr()
    assert "4 rows merged from 2 shard(s)" in captured.out
    assert "[shard 0]" in captured.err  # per-shard progress streamed
    assert merged.read_bytes() == one_shot.read_bytes()


def test_sweep_rejects_shard_with_shards(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--grid", "smoke", "--shard", "0/2", "--shards", "2",
              "--out", str(tmp_path / "x.jsonl")])


def test_sweep_orchestrated_rejects_bad_pool_arguments(tmp_path):
    # Usage errors exit via argparse, never an orchestrator traceback.
    with pytest.raises(SystemExit):
        main(["sweep", "--grid", "smoke", "--shards", "2", "--workers", "0",
              "--out", str(tmp_path / "x.jsonl")])
    with pytest.raises(SystemExit):
        main(["sweep", "--grid", "smoke", "--shards", "2",
              "--max-retries", "-1", "--out", str(tmp_path / "x.jsonl")])


def test_sweep_merge_unwritable_output_exits_cleanly(tmp_path, capsys):
    shard = tmp_path / "s.jsonl"
    assert main(["sweep", "--grid", "smoke", "--shard", "0/1",
                 "--out", str(shard)]) == 0
    capsys.readouterr()
    # Output directory does not exist: the reason and path must land on
    # stderr with a non-zero exit, not as an unhandled traceback.
    assert main(["sweep-merge", "--out", str(tmp_path / "nodir" / "m.jsonl"),
                 str(shard) + ".shard0-1.jsonl"]) == 1
    err = capsys.readouterr().err
    assert "sweep-merge FAILED" in err and "nodir" in err


def test_sweep_verify_missing_file_exits_cleanly(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["sweep-verify", "--a", missing, "--b", missing]) == 1
    err = capsys.readouterr().err
    assert "sweep-verify FAILED" in err and "nope.jsonl" in err


def test_sweep_verify_flags_torn_trailing_line(tmp_path, capsys):
    """A killed run's torn tail must FAIL verification (resume tolerates
    it, but a verification primitive exists to catch exactly that)."""
    a = tmp_path / "a.jsonl"
    assert main(["sweep", "--grid", "smoke", "--out", str(a)]) == 0
    b = tmp_path / "b.jsonl"
    b.write_text(a.read_text() + '{"cell_id": "torn', encoding="utf-8")
    capsys.readouterr()
    assert main(["sweep-verify", "--a", str(a), "--b", str(b)]) == 1
    err = capsys.readouterr().err
    assert "corrupt JSONL row" in err


@pytest.mark.parametrize(
    "grid, command", [("thm42_grid", "thm42"), ("protocol_ablation_grid", "ablations")]
)
def test_results_table_of_a_stored_theorem_grid_is_the_command_table(
    tmp_path, capsys, grid, command
):
    """One producer: a paper grid swept to a file and ingested into the
    results store tabulates and plots exactly as its command prints."""
    import repro.sweep
    from repro.results import ResultsStore

    spec, rows, store = getattr(repro.sweep, grid)(), tmp_path / "rows.jsonl", tmp_path / "s"
    repro.sweep.run_sweep(spec, str(rows))
    assert ResultsStore(str(store)).ingest(spec, str(rows)).complete
    stored = []
    for sub in ("table", "plot"):
        assert main(["results", sub, spec.name, "--store", str(store)]) == 0
        stored.append(capsys.readouterr().out)
    assert main([command]) == 0
    assert "\n".join(stored) in capsys.readouterr().out
