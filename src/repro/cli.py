"""Command-line interface: regenerate any paper figure from the terminal.

Examples::

    repro-arrow fig10 --procs 2,4,8,16,32 --requests-per-proc 200
    repro-arrow fig11
    repro-arrow fig9 --variant layered -D 64 -k 4
    repro-arrow thm319 --diameters 8,16,32,64
    repro-arrow thm41
    repro-arrow sweep --grid thm41 --diameters 16,64 --workers 2 --out thm41.jsonl
    repro-arrow ablations
    repro-arrow all --json results.json
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time

from repro.core.engines import ENGINES
from repro.errors import MergeError, ReproError, ShardFailedError, SweepError
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
#: reaches the grid's preset as the keyword parameter named by its
#: destination (:func:`_call_preset`); a preset without that parameter
#: makes the flag a usage error.  No flag has a default of its own, so an
#: omitted flag leaves the preset's default in place.
_GRID_FLAGS = {
    ("--sizes", "--procs"): {"type": _int_list, "help": "system sizes"},
    ("--per-node",): {"type": int, "help": "requests per node"},
    ("--requests-per-proc",): {"type": int, "help": "closed-loop requests per processor"},
    ("--think-time",): {"type": float, "help": "closed-loop think time"},
    ("--acquisitions-per-proc",): {"type": int, "help": "directory acquisitions per processor"},
    ("--seeds",): {"type": _int_list},
    ("--engine",): {"choices": ENGINES},
    ("-D",): {"type": int, "help": "lower-bound instance diameter"},
    ("-k",): {"type": int, "help": "lower-bound instance sweeps"},
    ("--variant",): {"choices": ["literal", "layered"]},
    ("--diameters",): {"type": _int_list},
    ("--requests",): {"type": int},
    ("--stretches",): {"type": _int_list},
}


def _grid_flags() -> argparse.ArgumentParser:
    """The grid-identity flags shared by ``sweep``, ``results ingest`` and
    the paper commands, as a parent parser.

    Everything here feeds :func:`_build_grid_spec`, so the commands
    cannot drift apart: the spec an ingest hashes is built by the same
    code path as the spec the sweep ran.  ``sweep`` and ``results
    ingest`` add ``--grid``; a paper command's grids are fixed by
    :data:`_COMMANDS`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for options, keywords in _GRID_FLAGS.items():
        parent.add_argument(*options, **{"default": None, **keywords})
    parent.add_argument("--faults", action="append", default=None,
                        metavar="PLAN",
                        help="fault plan applied to every cell: "
                             "comma-separated crash@T:NODE, link@U-V:T0-T1, "
                             "loss:RATE terms (open-loop grids only; repeat "
                             "the flag to sweep a fault axis of several "
                             "plans)")
    return parent


def _call_preset(preset, args, error):
    """``preset`` called with the grid flags given.

    A flag lands on the preset's keyword parameter of its destination
    name, read from the signature as :meth:`GraphSpec.of` reads a
    generator's; omitted flags fall through to the preset's defaults.  A
    flag the preset lacks, or a ``SweepError`` while it builds the grid,
    is a usage error (exit 2), raised before any output file is opened.
    """
    accepted = inspect.signature(preset).parameters
    kwargs = {}
    for option, *_ in _GRID_FLAGS:
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


def _build_grid_spec(args, grid, error):
    """The grid named ``grid`` with the flags given (or ``error`` out)."""
    from repro.sweep import GRIDS

    spec = _call_preset(GRIDS[grid], args, error)
    axes = {"faults": tuple(args.faults)} if args.faults else {}
    if getattr(args, "monitors", False):
        axes["monitors"] = True
    try:
        return dataclasses.replace(spec, **axes) if axes else spec
    except SweepError as exc:
        error(str(exc))


#: The paper commands, in ``all`` order: command -> the names of the
#: grids it tabulates, one table each, the figure of the grid's name
#: (:data:`repro.results.FIGURES`, whose title is the command's help).
#: Two exceptions: ``fig11`` is the ``fig10`` grid's ``closed_arrow``
#: cells tabulated as Fig. 11, and ``ablation-service-time`` is not in
#: :data:`repro.sweep.GRIDS` but five grids, :func:`service_time_grids`.
_COMMANDS = {
    "fig10": ("fig10",),
    "fig11": ("fig10",),
    "directory": ("directory",),
    "fig9": ("fig9",),
    "oneshot": ("oneshot",),
    "thm319": ("thm319",),
    "thm321": ("thm321",),
    "thm41": ("thm41",),
    "thm42": ("thm42",),
    "sequential": ("sequential",),
    "ablations": ("ablation-trees", "ablation-protocols", "ablation-service-time"),
}


def _figures_of(command) -> list[str]:
    """The figures ``command`` prints, in order."""
    return ["fig11"] if command == "fig11" else list(_COMMANDS[command])


def _produce(args):
    """Yield the tables of one paper command, lazily: each grid swept in
    memory and tabulated as ``results table`` tabulates a stored run.

    A row that breaks a persisted invariant (``exclusion_ok`` false on a
    directory row) is a protocol violation, not a figure: exit 1.
    """
    import repro.sweep
    from repro.results import figure_from_rows
    from repro.sweep.persist import verify_rows

    for grid, figure in zip(_COMMANDS[args.cmd], _figures_of(args.cmd)):
        if grid == "ablation-service-time":
            specs = _call_preset(repro.sweep.service_time_grids, args, args.usage_error)
        else:
            specs = (_build_grid_spec(args, grid, args.usage_error),)
        if figure == "fig11":
            # Only arrow's hops are plotted: skip the centralized cells.
            (spec,) = specs
            arrow = tuple(s for s in spec.schedules if s.family == "closed_arrow")
            specs = (dataclasses.replace(spec, schedules=arrow),)
        if grid == "fig9":
            # Fig. 9 is a picture first: the instance its one cell builds.
            (cell,) = specs[0].cells()
            built = repro.sweep.get_family(cell.schedule.family).build(cell, cell.seed)
            print(render_instance(built["schedule"], cell.schedule.kwargs()["D"]))
            print()
        problems: list[str] = []
        rows = (
            row
            for spec in specs
            for row in verify_rows(repro.sweep.iter_sweep(spec), figure, problems.append)
        )
        result = figure_from_rows(figure, rows, metric=args.metric)
        if problems:
            raise SystemExit(f"{figure} FAILED: " + "; ".join(problems))
        yield result


def _compare_side(store, key_or_path: str, known):
    """A compare operand is a JSONL path when it names a file, else a key.

    Both operands read through one ``known`` map, which holds the row a
    read parsed last: :func:`compare_rows` walks the sides in lockstep, so
    a line of B equal to the line of A just read is A's row object, which
    it need not walk.
    """
    import os

    from repro.results.store import finished_rows

    if os.path.isfile(key_or_path):
        return finished_rows(key_or_path, known)
    return store.rows(key_or_path, known)


def _results_command(args, ingest_error) -> int:
    """Dispatch the ``results`` subcommand group; returns an exit code."""
    from repro.results import ResultsStore, compare_rows, figure_from_rows
    from repro.results.store import sketching
    from repro.sweep.stats import MidpointCounts

    store = ResultsStore(args.store)
    try:
        if args.results_cmd == "ingest":
            spec = _build_grid_spec(args, args.grid, ingest_error)
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
            rows = store.rows(args.run)
            grid = MidpointCounts()
            if args.results_cmd == "table" and args.percentiles:
                rows = sketching(rows, grid)  # one read for the figure and the sketch
            result = figure_from_rows(manifest["name"], rows, metric=args.metric)
            if args.results_cmd == "plot":
                print(plot(result))
            else:
                print(format_table(result))
                if args.percentiles:
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
            known: dict = {}
            cmp = compare_rows(
                _compare_side(store, args.a, known),
                _compare_side(store, args.b, known),
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

    from repro.results import FIGURES
    from repro.sweep import GRIDS

    grid_flags = _grid_flags()
    named_grid = argparse.ArgumentParser(add_help=False)
    named_grid.add_argument("--grid", choices=sorted(GRIDS), default="smoke",
                            help="named grid (repro.sweep.GRIDS)")
    for name in _COMMANDS:
        p = sub.add_parser(
            name,
            parents=[grid_flags],
            help="; ".join(FIGURES[t].title for t in _figures_of(name)),
        )
        p.set_defaults(usage_error=p.error)
        p.add_argument("--metric", default=None,
                       help="row column to tabulate (default: per-figure)")
    sub.add_parser("all", help="run every experiment at default scale")

    psw = sub.add_parser(
        "sweep",
        parents=[named_grid, grid_flags],
        help="declarative parameter sweep over graphs/trees/schedules",
    )
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

    psv = sub.add_parser(
        "sweep-verify",
        help="assert two sweep JSONL files carry identical rows "
             "(the engines' bit-identity contract, as a CI primitive)",
    )
    psv.add_argument("--a", required=True, help="first JSONL file")
    psv.add_argument("--b", required=True, help="second JSONL file")
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
        parents=[named_grid, grid_flags],
        help="ingest merged sweep JSONL into the store under the grid's "
             "spec hash (idempotent; partial grids fill in on re-ingest)",
    )
    pri.add_argument("jsonl", nargs="+", help="sweep JSONL file(s) to ingest")
    pri.add_argument("--store", default="results", metavar="DIR",
                     help="store root directory (default: results)")

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
        runs = [top.parse_args([name]) for name in _COMMANDS]
        _emit((r for run in runs for r in _produce(run)), args)
    elif args.cmd in _COMMANDS:
        _emit(_produce(args), args)
    elif args.cmd == "sweep":
        from repro.sweep import run_sweep, shard_path

        spec = _build_grid_spec(args, args.grid, psw.error)
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
            from repro.sweep.orchestrator import orchestrate_sweep

            try:
                summary = orchestrate_sweep(
                    spec,
                    args.out,
                    shards=shards,
                    workers=args.workers,
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
        try:
            summary = run_sweep(
                spec, out, resume=not args.no_resume, shard=args.shard
            )
        except ReproError as exc:
            if exc.cell_id is None:  # damage in a result file names its line
                raise
            print(f"sweep FAILED: {exc}", file=sys.stderr)
            return 1
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
        from repro.sweep.persist import diff_rows

        try:
            rows, problems = diff_rows(
                args.a,
                args.b,
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
