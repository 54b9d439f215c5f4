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
# the two command tables, dispatched with stub producers
# ----------------------------------------------------------------------
@pytest.fixture
def stubbed(monkeypatch):
    """Stub every producer ``_FIGURES`` / ``_EXPERIMENTS`` can reach.

    The CLI resolves producers when a command runs, so patching the
    packages is enough.  Returns the list of ``(producer, kwargs)`` calls.
    """
    import repro.experiments as experiments
    import repro.sweep
    from repro import cli
    from repro.experiments import ExperimentResult, Fig9Report, Series

    calls = []

    def record(name):
        def stub(**kwargs):
            calls.append((name, kwargs))
            return ExperimentResult(name, name, "x", [Series("s", [1.0], [2.0])])

        return stub

    for _, _, producers in cli._EXPERIMENTS.values():
        for producer in producers:
            if isinstance(producer, str):
                monkeypatch.setattr(experiments, producer, record(producer))

    def run_fig9(D, k, *, variant):
        calls.append(("run_fig9", {"D": D, "k": k, "variant": variant}))
        return Fig9Report(variant, D, k, 3, 4.0, 5.0, 2.0, 1.0, 1.5, 2.0, "*pic*", 4.0)

    def iter_sweep(spec):
        calls.append(("iter_sweep", {"families": {s.family for s in spec.schedules}}))
        for n in (2.0, 4.0):
            for s in spec.schedules:
                yield {"schedule": s.family, "tree": "bfs", "graph": "complete",
                       "n": n, "seed": 0, "makespan": n, "mean_hops": 0.5}

    monkeypatch.setattr(experiments, "run_fig9", run_fig9)
    monkeypatch.setattr(repro.sweep, "iter_sweep", iter_sweep)
    return calls


def _table_commands():
    from repro import cli

    return [*cli._FIGURES, *cli._EXPERIMENTS]


def _documents_of(name):
    """How many ``--json`` documents command ``name`` writes (one per producer)."""
    from repro import cli

    return len(cli._EXPERIMENTS[name][2]) if name in cli._EXPERIMENTS else 1


@pytest.mark.parametrize("name", [*_table_commands(), "all"])
def test_every_table_command_dispatches(stubbed, tmp_path, capsys, name):
    path = tmp_path / "out.json"
    assert main(["--json", str(path), name]) == 0
    out = capsys.readouterr().out
    docs = json.loads(path.read_text())
    names = _table_commands() if name == "all" else [name]
    assert len(docs) == sum(_documents_of(n) for n in names) > 0
    assert f"wrote {path}" in out
    # One producer call per document, in table order, with the parsed defaults.
    ran = [c[0] for c in stubbed]
    assert len(ran) == len(docs)
    if name in ("fig9", "all"):
        assert "*pic*" in out and "measured ratio" in out
        (doc,) = (d for d in docs if d["experiment_id"] == "fig9")
        assert [s["name"] for s in doc["series"]][:2] == ["arrow cost", "opt upper"]
        assert ("run_fig9", {"D": 64, "k": 4, "variant": "layered"}) in stubbed
    if name in ("thm319", "all"):
        assert ("run_competitive_sweep", {"diameters": None, "requests": 60}) in stubbed
    if name == "all":
        assert ran[:3] == ["iter_sweep"] * 3 and ran[3] == "run_fig9"
        assert [d["experiment_id"] for d in docs[:4]] == [
            "fig10", "fig11", "directory", "fig9"]


def test_experiment_flags_reach_the_producer(stubbed):
    assert main(["thm42", "--stretches", "1,2"]) == 0
    assert main(["thm321", "--diameters", "8", "--requests", "5"]) == 0
    assert main(["fig9", "-D", "8", "-k", "2", "--variant", "literal"]) == 0
    assert stubbed == [
        ("run_theorem42_sweep", {"stretches": [1, 2]}),
        ("run_async_comparison", {"diameters": [8], "requests": 5}),
        ("run_fig9", {"D": 8, "k": 2, "variant": "literal"}),
    ]


def test_fig9_json_holds_the_record(tmp_path):
    """fig9 prints a picture and a cost block of its own; its record must
    still reach ``--json`` like every other command's."""
    path = tmp_path / "fig9.json"
    assert main(["--json", str(path), "fig9", "-D", "16", "-k", "2"]) == 0
    (doc,) = json.loads(path.read_text())
    assert doc["experiment_id"] == "fig9" and doc["params"]["k"] == 2
    assert {s["name"]: s["ys"] for s in doc["series"]}["arrow cost"] == [34.0]


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
