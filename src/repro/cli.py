"""Command-line interface: regenerate any paper figure from the terminal.

Examples::

    repro-arrow fig10 --procs 2,4,8,16,32 --requests-per-proc 200
    repro-arrow fig11
    repro-arrow fig9 --variant layered -D 64 -k 4
    repro-arrow thm319 --diameters 8,16,32,64
    repro-arrow thm41
    repro-arrow ablations
    repro-arrow all --json results.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from repro.core.fast_arrow import ENGINES
from repro.experiments import format_kv, format_table, plot, render_instance

__all__ = ["main"]


def _int_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x]
    if not values:
        # An empty list must not silently fall back to a preset's default.
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        )
    return values


def _shard(text: str) -> tuple[int, int]:
    """Parse and range-check ``I/M`` (shard index/count) for ``--shard``."""
    try:
        index, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected I/M (e.g. 0/4), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 0 <= I < M, got {text!r}"
        )
    return index, count


def _orchestrator_progress():
    """Build a stderr progress printer for orchestrated sweeps.

    Shard lifecycle transitions (launch / retry / failure / completion)
    always print; per-shard row-count progress is throttled to one line
    per shard per second so long runs stream useful status without
    flooding terminals or CI logs.
    """
    last_line: dict[int, tuple[float, int]] = {}

    def emit(event: dict) -> None:
        kind = event["event"]
        if kind == "launch":
            print(
                f"[shard {event['shard']}] attempt {event['attempt']} "
                f"started ({event['total']} cells)",
                file=sys.stderr,
            )
        elif kind == "retry":
            print(
                f"[shard {event['shard']}] {event['reason']}; retry "
                f"{event['retries_used']}/{event['max_retries']} "
                "(resuming from its shard file)",
                file=sys.stderr,
            )
        elif kind == "failed":
            print(
                f"[shard {event['shard']}] FAILED, retry budget exhausted: "
                f"{event['reason']}",
                file=sys.stderr,
            )
        elif kind == "shard-done":
            print(
                f"[shard {event['shard']}] done: "
                f"{event['done']}/{event['total']} cells "
                f"in {event['attempts']} attempt(s)",
                file=sys.stderr,
            )
        elif kind == "progress":
            now = time.monotonic()
            for s in event["shards"]:
                if s["status"] != "running":
                    continue
                then, done = last_line.get(s["shard"], (0.0, -1))
                if s["done"] != done and now - then >= 1.0:
                    print(
                        f"[shard {s['shard']}] {s['done']}/{s['total']} "
                        f"cells ({s['rate']:.1f} rows/s)",
                        file=sys.stderr,
                    )
                    last_line[s["shard"]] = (now, s["done"])

    return emit


def _emit(results, args) -> None:
    """Print each result as it is produced; ``--json`` gets all of them."""
    docs = []
    for r in results:
        print(format_table(r))
        print()
        print(plot(r))
        print()
        docs.append(json.loads(r.to_json()))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(docs, fh, indent=2)
        print(f"wrote {args.json}")


#: The grid flags: option strings -> ``add_argument`` keywords.  Each
#: reaches the ``--grid`` preset as the keyword parameter named by its
#: destination (:func:`_call_preset`); a preset without that parameter
#: makes the flag a usage error.
_GRID_FLAGS = {
    ("--sizes", "--procs"): {"type": _int_list, "help": "system sizes"},
    ("--per-node",): {"type": int, "help": "requests per node"},
    ("--requests-per-proc",): {"type": int, "help": "closed-loop requests per processor"},
    ("--think-time",): {"type": float, "help": "closed-loop think time"},
    ("--acquisitions-per-proc",): {"type": int, "help": "directory acquisitions per processor"},
    ("--seeds",): {"type": _int_list},
    ("--engine",): {"choices": ENGINES, "default": "fast"},
}


def _add_grid_arguments(parser) -> None:
    """Grid-identity flags shared by ``sweep``, ``results ingest`` and the
    per-figure commands.

    Everything here feeds :func:`_build_grid_spec`, so the commands
    cannot drift apart: the spec an ingest hashes is built by the same
    code path as the spec the sweep ran.  A figure command has already
    fixed its grid with ``set_defaults(grid=...)`` and gets no ``--grid``.
    """
    if parser.get_default("grid") is None:
        parser.add_argument(
            "--grid",
            choices=["fig10", "fig11", "mixed", "smoke", "directory"],
            default="smoke",
            help="named grid preset (fig10 = closed-loop arrow vs "
                 "centralized, directory = §5.1 arrow vs home-based "
                 "directory)",
        )
    for options, keywords in _GRID_FLAGS.items():
        parser.add_argument(*options, **{"default": None, **keywords})
    parser.add_argument("--faults", action="append", default=None,
                        metavar="PLAN",
                        help="fault plan applied to every cell: "
                             "comma-separated crash@T:NODE, link@U-V:T0-T1, "
                             "loss:RATE terms (open-loop grids only; repeat "
                             "the flag to sweep a fault axis of several "
                             "plans)")


def _call_preset(preset, args, options, error):
    """``preset`` called with the given flags among ``options``.

    A flag lands on the preset's keyword parameter of its destination
    name, read from the signature as :meth:`GraphSpec.of` reads a
    generator's; omitted flags fall through to the preset's defaults.  A
    flag the preset lacks, or a ``SweepError`` while it builds the grid,
    is a usage error (exit 2), raised before any output file is opened.
    """
    from repro.errors import SweepError

    accepted = inspect.signature(preset).parameters
    kwargs = {}
    for option in options:
        name = option.lstrip("-").replace("-", "_")
        if (value := getattr(args, name)) is None:
            continue
        if name not in accepted:
            error(f"{option} does not apply to {preset.__name__}")
        kwargs[name] = value
    try:
        return preset(**kwargs)
    except SweepError as exc:
        error(str(exc))


def _build_grid_spec(args, error):
    """Expand the preset + overrides into a SweepSpec (or ``error`` out)."""
    import dataclasses

    import repro.sweep
    from repro.errors import SweepError

    options = [options[0] for options in _GRID_FLAGS]
    spec = _call_preset(getattr(repro.sweep, f"{args.grid}_grid"), args, options, error)
    axes = {"faults": tuple(args.faults)} if args.faults else {}
    if getattr(args, "monitors", False):
        axes["monitors"] = True
    try:
        return dataclasses.replace(spec, **axes) if axes else spec
    except SweepError as exc:
        error(str(exc))


#: The paper's measured figures as presets over the shared grid flags:
#: command -> (grid preset, help text, parser defaults).  The defaults
#: are the figures' published sizes; every grid flag still overrides.
_SP2_LOOP = {"sizes": [2, 4, 8, 16, 32, 48, 64, 76], "requests_per_proc": 300}
_FIGURES = {
    "fig10": ("fig10", "arrow vs centralized closed-loop latency", _SP2_LOOP),
    # Fig. 11 is the same closed loop, tabulated on hops instead of time.
    "fig11": ("fig10", "arrow hops per operation", _SP2_LOOP),
    "directory": (
        "directory",
        "arrow vs home-based directory (5.1)",
        {"sizes": [2, 4, 8, 12, 16], "acquisitions_per_proc": 50},
    ),
}


def _table(name, specs, metric=None):
    """One paper table: sweep its grid(s) in memory, tabulate the rows.

    A row that breaks a persisted invariant (``exclusion_ok`` false on a
    directory row) is a protocol violation, not a figure: exit 1.
    """
    from repro.results import figure_from_rows
    from repro.sweep import iter_sweep
    from repro.sweep.persist import verify_rows

    problems: list[str] = []
    rows = [
        row
        for spec in specs
        for row in verify_rows(iter_sweep(spec), name, problems.append)
    ]
    if problems:
        raise SystemExit(f"{name} FAILED: " + "; ".join(problems))
    return figure_from_rows(name, rows, metric=metric)


def _figure(args):
    """A measured figure: its grid from the shared grid flags."""
    import dataclasses

    spec = _build_grid_spec(args, args.usage_error)
    if args.cmd == "fig11":
        # Only arrow's hops are plotted: skip the centralized cells.
        spec = dataclasses.replace(
            spec,
            schedules=tuple(
                s for s in spec.schedules if s.family == "closed_arrow"
            ),
        )
    return _table(args.cmd, [spec], args.metric)


#: The theorem and ablation tables as presets: command -> (help text,
#: flags, grids).  ``flags`` maps an option to its ``add_argument``
#: keywords; each grid names a preset of :mod:`repro.sweep`, called with
#: the flags given (by destination name), that returns one ``SweepSpec``
#: — or, for the service-time ablation, one per service time — and makes
#: one table, the figure of its name.  ``all`` runs ``_FIGURES`` then this
#: table, in order.
_PRESETS = {
    "fig9": (
        "lower-bound instance picture + costs",
        {
            "-D": {"type": int, "default": 64},
            "-k": {"type": int, "default": 4},
            "--variant": {"choices": ["literal", "layered"], "default": "layered"},
        },
        ("fig9_grid",),
    ),
    "oneshot": ("one-shot concurrent case ([10])", {}, ("oneshot_grid",)),
    "thm319": (
        "competitive ratio sweep (sync)",
        {"--diameters": {"type": _int_list}, "--requests": {"type": int, "default": 60}},
        ("thm319_grid",),
    ),
    "thm321": (
        "asynchronous comparison",
        {"--diameters": {"type": _int_list}, "--requests": {"type": int, "default": 60}},
        ("thm321_grid",),
    ),
    "thm41": ("lower-bound ratio growth sweep", {}, ("thm41_grid",)),
    "thm42": ("lower bound vs stretch", {"--stretches": {"type": _int_list}}, ("thm42_grid",)),
    "sequential": ("sequential-regime baseline checks", {}, ("sequential_grid",)),
    "ablations": (
        "tree/protocol/service-time ablations",
        {},
        ("tree_ablation_grid", "protocol_ablation_grid", "service_time_grids"),
    ),
}


def _produce(args):
    """Yield the tables of one paper command, lazily."""
    if args.cmd in _FIGURES:
        yield _figure(args)
        return
    import repro.sweep

    _, flags, grids = _PRESETS[args.cmd]
    for grid in grids:
        specs = _call_preset(getattr(repro.sweep, grid), args, flags, args.usage_error)
        specs = specs if isinstance(specs, tuple) else (specs,)
        if args.cmd == "fig9":
            # Fig. 9 is a picture first: the instance its one cell builds.
            (cell,) = specs[0].cells()
            built = repro.sweep.get_family(cell.schedule.family).build(cell, cell.seed)
            print(render_instance(built["schedule"], args.D))
            print()
        yield _table(specs[0].name, specs)


def _compare_side(store, key_or_path: str):
    """A compare operand is a JSONL path when it names a file, else a key."""
    import os

    from repro.results.store import finished_rows

    if os.path.isfile(key_or_path):
        return finished_rows(key_or_path)
    return store.rows(key_or_path)


def _results_command(args, ingest_error) -> int:
    """Dispatch the ``results`` subcommand group; returns an exit code."""
    from repro.errors import ReproError
    from repro.results import ResultsStore, compare_rows, figure_from_rows

    store = ResultsStore(args.store)
    try:
        if args.results_cmd == "ingest":
            spec = _build_grid_spec(args, ingest_error)
            for path in args.jsonl:
                print(store.ingest(spec, path).summary())
        elif args.results_cmd == "list":
            runs = store.list_runs()
            for m in runs:
                state = (
                    "complete"
                    if m.get("complete")
                    else f"partial {m.get('ingested')}/{m.get('cells')}"
                )
                print(f"run         {m['spec_hash'][:12]}  "
                      f"{m['name']:<12}{state}")
            if not runs:
                print(f"(empty store: {store.root})")
        elif args.results_cmd in ("table", "plot"):
            manifest = store.manifest(args.run)
            result = figure_from_rows(
                manifest["name"], store.rows(args.run), metric=args.metric
            )
            if args.results_cmd == "plot":
                print(plot(result))
            else:
                print(format_table(result))
                if args.percentiles:
                    grid = store.grid_sketch(args.run)
                    print()
                    if grid.count:
                        print(
                            format_kv(
                                {
                                    "requests": grid.count,
                                    "p50": round(grid.quantile(50), 6),
                                    "p90": round(grid.quantile(90), 6),
                                    "p99": round(grid.quantile(99), 6),
                                    "max": round(grid.max_value(), 6),
                                },
                                title="grid latency percentiles "
                                      "(merged sketch, histogram-backed)",
                            )
                        )
                    else:
                        print("(no latency histograms stored for this run)")
        elif args.results_cmd == "compare":
            cmp = compare_rows(
                _compare_side(store, args.a),
                _compare_side(store, args.b),
                max_delta_pct=args.max_delta_pct,
            )
            for line in cmp.report_lines():
                print(line)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(cmp.to_doc(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"wrote {args.out}")
            if not cmp.ok:
                for line in cmp.problems + cmp.exceeding:
                    print(line, file=sys.stderr)
                print(
                    f"results compare FAILED: {len(cmp.problems)} "
                    f"problem(s), {len(cmp.exceeding)} delta(s) beyond "
                    "tolerance",
                    file=sys.stderr,
                )
                return 1
            print("results compare OK")
    except (ReproError, OSError) as exc:
        print(f"results {args.results_cmd} FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-arrow`` console script."""
    top = argparse.ArgumentParser(
        prog="repro-arrow",
        description="Reproduce the arrow-protocol paper's figures and theorems",
    )
    top.add_argument("--json", help="also write results to this JSON file")
    sub = top.add_subparsers(dest="cmd", required=True)

    for name, (grid, text, defaults) in _FIGURES.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(grid=grid)
        _add_grid_arguments(p)
        p.set_defaults(usage_error=p.error, **defaults)
        p.add_argument("--metric", default=None,
                       help="row column to tabulate (default: per-figure)")

    for name, (text, flags, _) in _PRESETS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(usage_error=p.error)
        for option, keywords in flags.items():
            p.add_argument(option, **keywords)
    sub.add_parser("all", help="run every experiment at default scale")

    psw = sub.add_parser(
        "sweep", help="declarative parameter sweep over graphs/trees/schedules"
    )
    _add_grid_arguments(psw)
    psw.add_argument("--monitors", action="store_true",
                     help="attach runtime protocol monitors to every cell; "
                          "rows are unchanged, an invariant violation "
                          "aborts the sweep")
    psw.add_argument("--workers", type=int, default=1, metavar="K",
                     help="shard processes to run at once (default 1: the "
                          "whole grid in this process).  K > 1 partitions "
                          "the grid into K round-robin shards (or --shards "
                          "M), runs them in a supervised pool that retries "
                          "killed/failed shards from their resumable files "
                          "beside --out, then merges into --out — the same "
                          "bytes as --workers 1 (exit 3: a shard exhausted "
                          "its retries; exit 4: merge verification failed — "
                          "distinct from argparse's usage-error exit 2, so "
                          "rerun-on-shard-failure wrappers can't loop on a "
                          "typo)")
    psw.add_argument("--out", default="sweep.jsonl", help="JSONL output path")
    psw.add_argument("--no-resume", action="store_true",
                     help="discard existing rows instead of resuming")
    psw.add_argument("--shard", type=_shard, default=None, metavar="I/M",
                     help="run only shard I of M (cells with index %% M == I) "
                          "into a per-shard file derived from --out; "
                          "reassemble with sweep-merge")
    psw.add_argument("--shards", type=int, default=None, metavar="M",
                     help="partition into M shards instead of --workers "
                          "many (more shards than workers balances uneven "
                          "cells); supervised, retried and merged like any "
                          "--workers run")
    psw.add_argument("--max-retries", type=int, default=2,
                     help="per-shard retry budget of a supervised run "
                          "(default: 2)")

    psv = sub.add_parser(
        "sweep-verify",
        help="assert two sweep JSONL files carry identical rows "
             "(the engines' bit-identity contract, as a CI primitive)",
    )
    psv.add_argument("--a", required=True, help="first JSONL file")
    psv.add_argument("--b", required=True, help="second JSONL file")
    psv.add_argument("--ignore", default="engine",
                     help="comma-separated row columns excluded from the "
                          "comparison (default: engine)")
    psv.add_argument("--expect-cells", type=int, default=None,
                     help="also require exactly this many rows per file")

    psm = sub.add_parser(
        "sweep-merge",
        help="merge sharded sweep JSONL files back into grid order, "
             "verifying completeness and row-shape invariants",
    )
    psm.add_argument("shards", nargs="+", help="per-shard JSONL files")
    psm.add_argument("--out", required=True, help="merged JSONL output path")
    psm.add_argument("--expect-cells", type=int, default=None,
                     help="require exactly this many rows across all shards")

    pres = sub.add_parser(
        "results",
        help="content-addressed results store: ingest sweep JSONL, "
             "regenerate canonical tables/plots, compare runs",
    )
    rsub = pres.add_subparsers(dest="results_cmd", required=True)

    pri = rsub.add_parser(
        "ingest",
        help="ingest merged sweep JSONL into the store under the grid's "
             "spec hash (idempotent; partial grids fill in on re-ingest)",
    )
    pri.add_argument("jsonl", nargs="+", help="sweep JSONL file(s) to ingest")
    pri.add_argument("--store", default="results", metavar="DIR",
                     help="store root directory (default: results)")
    _add_grid_arguments(pri)

    prl = rsub.add_parser("list", help="list stored runs")
    prl.add_argument("--store", default="results", metavar="DIR")

    prt = rsub.add_parser(
        "table",
        help="render the canonical table for a stored run (no simulation)",
    )
    prt.add_argument("run", help="spec hash, unique hash prefix, or grid name")
    prt.add_argument("--store", default="results", metavar="DIR")
    prt.add_argument("--metric", default=None,
                     help="row column to tabulate (default: per-figure)")
    prt.add_argument("--percentiles", action="store_true",
                     help="append grid-level latency percentiles rebuilt "
                          "from the stored histograms")

    prp = rsub.add_parser(
        "plot",
        help="render the canonical ASCII plot for a stored run",
    )
    prp.add_argument("run", help="spec hash, unique hash prefix, or grid name")
    prp.add_argument("--store", default="results", metavar="DIR")
    prp.add_argument("--metric", default=None,
                     help="row column to plot (default: per-figure)")

    prc = rsub.add_parser(
        "compare", help="diff two runs per cell, with percent deltas"
    )
    prc.add_argument("--store", default="results", metavar="DIR")
    prc.add_argument("--a", required=True,
                     help="baseline run key or JSONL path")
    prc.add_argument("--b", required=True,
                     help="fresh run key or JSONL path")
    prc.add_argument("--max-delta-pct", type=float, default=None,
                     help="fail when any per-cell numeric delta exceeds "
                          "this percentage")
    prc.add_argument("--out", default=None, metavar="PATH",
                     help="also write the canonical BENCH_results.json "
                          "trajectory document here")

    args = top.parse_args(argv)

    if args.cmd == "all":
        runs = [top.parse_args([name]) for name in (*_FIGURES, *_PRESETS)]
        _emit((r for run in runs for r in _produce(run)), args)
    elif args.cmd in _FIGURES or args.cmd in _PRESETS:
        _emit(_produce(args), args)
    elif args.cmd == "sweep":
        from repro.sweep import run_sweep, shard_path

        spec = _build_grid_spec(args, psw.error)
        if args.workers < 1:
            psw.error("--workers must be >= 1")
        if args.shard is not None and (args.shards is not None or args.workers > 1):
            psw.error("--shard runs one shard by hand, in one process; "
                      "it excludes --shards and --workers > 1 (which "
                      "supervise all the shards)")
        if args.shards is not None or args.workers > 1:
            shards = args.workers if args.shards is None else args.shards
            if shards < 1:
                psw.error("--shards must be >= 1")
            if args.max_retries < 0:
                psw.error("--max-retries must be >= 0")
            from repro.errors import (
                MergeError,
                OrchestratorError,
                ShardFailedError,
            )
            from repro.sweep.orchestrator import orchestrate_sweep

            try:
                summary = orchestrate_sweep(
                    spec,
                    args.out,
                    shards=shards,
                    workers=args.workers,
                    max_retries=args.max_retries,
                    resume=not args.no_resume,
                    progress=_orchestrator_progress(),
                )
            except ShardFailedError as exc:
                for index, log in sorted(exc.failures.items()):
                    for entry in log:
                        print(f"shard {index}: {entry}", file=sys.stderr)
                print(f"sweep FAILED: {exc}", file=sys.stderr)
                return 3
            except MergeError as exc:
                for p in exc.problems:
                    print(p, file=sys.stderr)
                print(f"sweep merge FAILED: {exc}", file=sys.stderr)
                return 4
            except OrchestratorError as exc:
                # Driver misuse (e.g. a malformed REPRO_ORCH_FAULT):
                # reason on stderr, never an unhandled traceback.
                print(f"sweep FAILED: {exc}", file=sys.stderr)
                return 1
            print(
                f"sweep {summary['spec']}: {summary['rows']} rows merged "
                f"from {summary['shards']} shard(s), "
                f"{summary['retries_used']} retr"
                f"{'y' if summary['retries_used'] == 1 else 'ies'} used "
                f"-> {summary['path']}"
            )
            return 0
        out = args.out
        if args.shard is not None:
            out = shard_path(args.out, *args.shard)
        summary = run_sweep(
            spec, out, resume=not args.no_resume, shard=args.shard
        )
        shard_note = (
            f" (shard {summary['shard']})" if summary["shard"] is not None else ""
        )
        torn = summary["torn_dropped"]
        print(
            f"sweep {summary['spec']}{shard_note}: {summary['written']} written, "
            f"{summary['skipped']} skipped of {summary['cells']} cells"
            + (f" ({torn} torn trailing line dropped)" if torn else "")
            + f" -> {summary['path']}"
        )
    elif args.cmd == "sweep-verify":
        from repro.errors import ReproError
        from repro.sweep.persist import diff_rows

        try:
            rows, problems = diff_rows(
                args.a,
                args.b,
                ignore=tuple(x.strip() for x in args.ignore.split(",") if x.strip()),
                expect_cells=args.expect_cells,
            )
        except (ReproError, OSError) as exc:
            print(f"sweep-verify FAILED: {exc}", file=sys.stderr)
            return 1
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            print(
                f"sweep-verify FAILED: {len(problems)} problem(s) between "
                f"{args.a} and {args.b}",
                file=sys.stderr,
            )
            return 1
        print(f"sweep-verify OK: {rows} rows identical across {args.a} and {args.b}")
    elif args.cmd == "sweep-merge":
        from repro.errors import ReproError
        from repro.sweep.persist import merge_shards

        if args.expect_cells is None:
            print(
                "sweep-merge: warning: without --expect-cells a shard that "
                "lost only trailing cells is undetectable; pass the grid's "
                "cell count to certify completeness",
                file=sys.stderr,
            )
        try:
            rows, problems = merge_shards(
                args.shards, args.out, expect_cells=args.expect_cells
            )
        except (ReproError, OSError) as exc:
            # Unreadable shards / unwritable output must fail with the
            # offending path and reason, never an unhandled traceback.
            print(f"sweep-merge FAILED: {exc}", file=sys.stderr)
            return 1
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            print(
                f"sweep-merge FAILED: {len(problems)} problem(s) across "
                f"{len(args.shards)} shard(s); {args.out} not written",
                file=sys.stderr,
            )
            return 1
        print(
            f"sweep-merge OK: {rows} rows from {len(args.shards)} shard(s) "
            f"-> {args.out}"
        )
    elif args.cmd == "results":
        return _results_command(args, pri.error)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
