"""End-to-end benchmark: CLI → stored row, with per-layer attribution.

    python benchmarks/e2e/run.py [--seed 0] [--repeats 3] [--workloads a,b]
        [--scale 1.0] [--out BENCH_e2e.json] [--trace-out trace.json]

prints every metric by name with its unit, verifies the produced rows
and exits non-zero on any correctness failure.  It measures *host* time
of a deterministic simulator: simulated statistics must repeat exactly,
host seconds are what may move.

Driver protocol (``BENCHMARK.json``): ``--workload NAME --seed N
--seconds S --trace 0|1`` runs one workload — timed repeats for ``S``
seconds with ``--trace 0``, the traced pass alone with ``--trace 1`` —
and prints one JSON object as the last line of stdout.

How a run is timed: per repeat ONE fresh child interpreter runs
``pipeline.py`` (every step through ``repro.cli.main``); the parent
times spawn→exit and reaps with ``os.wait4``, so wall, CPU and peak RSS
cover interpreter start, imports and shard sub-processes.  Verification
runs in the parent after the child exits.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: End-to-end metrics: (name, unit, better, regression bound).  Times are
#: calibrated seconds (see ``reference``); their bounds are three times
#: the 3-10% spread ten runs show on the reference box after calibration.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("sim_requests_per_s", "1/s", "higher", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]
#: Fewest timing samples a median is reported from by default.
MIN_SAMPLES = 3
#: Size of the reference kernel that tracks the host's speed (see
#: ``reference``), and the time it takes on the unloaded reference box:
#: calibrated seconds equal raw seconds there.
REFERENCE_ITERATIONS = 300_000
REFERENCE_SECONDS = 0.2
#: Set-ups per run (``setup_s`` is their median).
SETUPS = 3
#: The warm-up pass runs the pipeline at this fraction of the scale: it
#: exists to fill .pyc and page caches, not to be measured.
WARMUP_SCALE = 0.1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return env


def fresh_dir(base: str, name: str) -> str:
    path = os.path.join(base, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def timed_child(argv: list[str], cwd: str) -> dict[str, float]:
    """Spawn ``python argv``; wall is spawn→exit, CPU time comes from
    ``wait4`` and so includes every descendant the child waited for."""
    with open(os.path.join(cwd, "stdout.txt"), "w") as out, \
            open(os.path.join(cwd, "stderr.txt"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, stdout=out,
                                stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
    }


def run_pipeline(name: str, workdir: str, inputs: str, seed: int,
                 scale: float) -> dict[str, float]:
    sample = timed_child(
        [os.path.join(HERE, "pipeline.py"), name, workdir, "--seed", str(seed),
         "--scale", repr(scale), "--inputs", inputs],
        workdir,
    )
    if sample["code"] == 0:
        # Measured by the child itself: see pipeline.peak_rss_kb.
        with open(os.path.join(workdir, "usage.json"), "r") as fh:
            sample["peak_rss_mb"] = json.load(fh)["peak_rss_kb"] / 1024.0
    return sample


def stderr_tail(workdir: str) -> str:
    with open(os.path.join(workdir, "stderr.txt"), "r", errors="replace") as fh:
        return fh.read()[-2000:]


def generate(workload, seed: int, scale: float, base: str, name: str):
    """Build the plan and its inputs (if any) in a fresh ``base/name``."""
    inputs = fresh_dir(base, name)
    plan = workload.plan(seed, scale, inputs)
    if plan.prepare is not None:
        plan.prepare(inputs)
    return plan, inputs


def set_up(workload, seed: int, scale: float, base: str):
    """Input generation + one warm-up pass; returns (plan, inputs, seconds)."""
    start = time.perf_counter()
    plan, inputs = generate(workload, seed, scale, base, "inputs")
    warm_scale = scale * WARMUP_SCALE
    _, warm_inputs = generate(workload, seed, warm_scale, base, "warm-inputs")
    warm_dir = fresh_dir(base, "warm")
    warm = run_pipeline(workload.name, warm_dir, warm_inputs, seed, warm_scale)
    if warm["code"] != 0:
        raise SystemExit(f"{workload.name}: warm-up pass failed with code "
                         f"{warm['code']}:\n{stderr_tail(warm_dir)}")
    return plan, inputs, time.perf_counter() - start


@contextlib.contextmanager
def pinned(workers: int):
    """Pin this process — and so every child it spawns — to ``workers``
    CPUs; yields them.  The highest-numbered ones: interrupts and the
    sandbox's own daemons favour CPU 0."""
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[-workers:]
    os.sched_setaffinity(0, cpus)
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, allowed)


def expected_for(workload, args):
    """The committed fingerprint to check against, if any applies."""
    import oracle

    if args.update_expected:
        return None
    return oracle.load_expected(workload.name, args.seed, args.scale)


def reference(cpus: list[int]) -> float:
    """Seconds a fixed pure-Python heap kernel takes right now on ``cpus``.

    This sandbox's speed drifts by up to 1.7x within seconds and per CPU
    (contended hyperthreads; it shows in CPU time as much as in wall
    time), so every timed interval is flanked by this kernel, run on the
    CPUs the interval used, and reported in calibrated seconds.  The
    kernel is independent of ``src/``: no change to the simulator can
    move it.
    """
    total = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        heap: list[tuple[int, int]] = []
        acc = 0
        for i in range(REFERENCE_ITERATIONS // len(cpus)):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            if i & 1:
                acc += heapq.heappop(heap)[0]
        total += time.perf_counter() - start
    os.sched_setaffinity(0, cpus)
    return total


def summarize(values: list[float]) -> dict[str, float]:
    return {"n": len(values), "min": min(values),
            "median": statistics.median(values), "max": max(values)}


def measure(workload, args, base: str) -> dict:
    """Set up, then time fresh pipeline children; verify each one's rows.

    The process (and so every child) is pinned to ``workload.workers``
    CPUs for the duration, and each interval is scaled by the reference
    kernel's time just before and just after it.
    """
    import oracle

    min_repeats = args.repeats if args.repeats is not None else MIN_SAMPLES
    with pinned(workload.workers) as cpus:
        marks = [reference(cpus)]
        raw_setups = []
        for _ in range(min(SETUPS, min_repeats)):
            plan, inputs, seconds = set_up(workload, args.seed, args.scale, base)
            raw_setups.append(seconds)
            marks.append(reference(cpus))

        runs: list[tuple[str, dict[str, float]]] = []
        began = time.perf_counter()
        while len(runs) < min_repeats or (
            time.perf_counter() - began
            + statistics.median(s["wall_s"] for _, s in runs) <= args.seconds
        ):
            workdir = fresh_dir(base, f"run-{len(runs)}")
            runs.append((workdir, run_pipeline(workload.name, workdir, inputs,
                                               args.seed, args.scale)))
            marks.append(reference(cpus))
    # marks[i], marks[i + 1] flank interval i (set-ups first, then runs).
    speed = [REFERENCE_SECONDS / ((a + b) / 2) for a, b in zip(marks, marks[1:])]
    setups = [raw * k for raw, k in zip(raw_setups, speed)]

    expected = expected_for(workload, args)
    samples: list[dict[str, float]] = []
    attempted = failed = 0
    problems: list[str] = []
    verdict = None
    verdicts: dict[str, oracle.Verdict] = {}
    for (workdir, sample), k in zip(runs, speed[len(setups):]):
        if sample["code"] != 0:
            cells = sum(g.spec.num_cells() for g in plan.grids)
            attempted += cells
            failed += cells
            problems.append(f"pipeline exited with code {sample['code']}: "
                            + stderr_tail(workdir)[-300:])
            continue
        produced = oracle.output_digest(plan, workdir)
        if produced not in verdicts:
            verdicts[produced] = oracle.check_plan(plan, workdir, expected)
            problems += verdicts[produced].problems
        verdict = verdicts[produced]
        attempted += verdict.cells
        failed += verdict.failed
        samples.append({**sample, "speed": k})

    if len(samples) < (1 if args.repeats is not None else MIN_SAMPLES):
        raise SystemExit(
            f"{workload.name}: refusing to report a median from "
            f"{len(samples)} sample(s) (need {MIN_SAMPLES}, or an explicit "
            f"--repeats): {problems[:3]}"
        )
    rows = plan.rows_read or verdict.rows
    walls = [s["wall_s"] * s["speed"] for s in samples]
    series = {
        "wall_s": walls,
        "cpu_s": [s["cpu_s"] * s["speed"] for s in samples],
        "sim_requests_per_s": [verdict.requests / w for w in walls],
        "rows_per_s": [rows / w for w in walls],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "setup_s": setups,
    }
    return {
        "input": {"cells": verdict.cells, "requests": verdict.requests,
                  "rows": rows, "workers": workload.workers},
        "end_to_end": {
            name: {"unit": unit, "better": better, "bound": bound,
                   **summarize(series[name]), "samples": series[name]}
            for name, unit, better, bound in END_TO_END
        },
        "raw": {"wall_s": [s["wall_s"] for s in samples],
                "cpu_s": [s["cpu_s"] for s in samples],
                "setup_s": raw_setups,
                "reference_s": marks},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems[:10],
        "fingerprint": verdict.fingerprint(),
    }


def cli_import_seconds(base: str) -> float:
    """Median wall of five fresh interpreters importing ``repro.cli``."""
    cwd = fresh_dir(base, "import")
    return statistics.median(
        timed_child(["-c", "import repro.cli"], cwd)["wall_s"] for _ in range(5)
    )


def traced_pass(workload, args, base: str, cli_import_s: float,
                first_id: int) -> dict:
    """One in-process pass with spans and probes; never part of the
    end-to-end numbers."""
    import oracle
    import trace as tracing
    from pipeline import run_steps

    with pinned(workload.workers):
        plan, inputs, _ = set_up(workload, args.seed, args.scale, base)
        untraced = run_pipeline(workload.name, fresh_dir(base, "run"), inputs,
                                args.seed, args.scale)
        workdir = fresh_dir(base, "traced")
        tracer = tracing.Tracer(workload.name, first_id)
        began = time.perf_counter()
        with open(os.path.join(workdir, "stdout.txt"), "w") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with tracing.instrument(tracer, plan), \
                    tracer.span("harness.pipeline"):
                run_steps(plan, workdir, tracer)
            rows = tracing.probe_plan(tracer, plan, workdir)
        traced_wall_s = time.perf_counter() - began
    verdict = oracle.check_plan(plan, workdir, expected_for(workload, args))
    metrics = tracing.layer_metrics(
        tracer.spans, plan, rows, workers=workload.workers,
        cli_import_s=cli_import_s, traced_wall_s=traced_wall_s,
        untraced_wall_s=untraced["wall_s"],
    )
    mismatches = int(metrics["core.engine_mismatch"])
    if mismatches:
        verdict.problems.append(f"{mismatches} engine probe(s) differ from "
                                "the stored row")
    return {
        "per_layer": {
            name: {"value": metrics[name], "unit": unit, "better": better}
            for name, unit, better in tracing.PER_LAYER
        },
        "attempted": verdict.cells,
        "failed": min(verdict.cells, verdict.failed + mismatches),
        "problems": verdict.problems[:10],
        "spans": tracer.spans,
    }


def header(args, catalogue: list[str]) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "catalogue": catalogue,
    }


def print_report(name: str, result: dict) -> None:
    if "end_to_end" in result:
        size = result["input"]
        print(f"== {name}: {size['cells']} cells, {size['requests']} requests, "
              f"{size['rows']} rows, {size['workers']} worker(s) ==")
        for metric, m in result["end_to_end"].items():
            print(f"  {metric:<22}{m['median']:>14.4f} {m['unit']:<4} "
                  f"n={m['n']} min={m['min']:.4f} max={m['max']:.4f}  "
                  f"[{m['better']} is better, bound {m['bound']:.0%}]")
        print(f"  {'failed_frac':<22}{result['failed_frac']:>14.4f}      "
              f"({result['failed']}/{result['attempted']} cells)")
    if "per_layer" in result:
        print(f"-- {name}: per-layer metrics (traced pass; event counts are "
              "computed from row columns) --")
        for metric, m in result["per_layer"].items():
            print(f"  {metric:<30}{m['value']:>16.6g} {m['unit']}")
    for problem in result.get("problems", []):
        print(f"  PROBLEM: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None,
                        help="driver mode: run this one workload and print a "
                             "result JSON object as the last line")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's size constants")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"timed repeats per workload (default "
                             f"{MIN_SAMPLES}); more are added while --seconds "
                             "lasts")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep timing fresh children for this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end only, 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--out", default=None,
                        help="write the full result document here")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced pass's span list here")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from this run (seed 0, "
                             "scale 1.0 only) instead of checking against it")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.workload and args.workloads:
        parser.error("--workload and --workloads are mutually exclusive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"run.py: no simulator source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import oracle
    from workloads import WORKLOADS, shard_workers

    names = (
        [args.workload] if args.workload
        else args.workloads.split(",") if args.workloads
        else list(WORKLOADS)
    )
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; know {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.update_expected and (args.seed, args.scale) != (
        oracle.EXPECTED_SEED, oracle.EXPECTED_SCALE
    ):
        print("run.py: --update-expected needs the default seed and scale",
              file=sys.stderr)
        return 2
    if "sharded_small_cells" in names and shard_workers() < 2:
        print("run.py: warning: nproc < 2, sharded_small_cells runs 1 worker "
              "instead of 2; its numbers are not comparable with a 2-worker "
              "baseline", file=sys.stderr)

    base = fresh_dir(WORK, str(os.getpid()))
    document = {"header": header(args, list(WORKLOADS)), "workloads": {}}
    spans: list[dict] = []
    try:
        cli_import_s = cli_import_seconds(base) if args.trace != 0 else 0.0
        for name in names:
            result: dict = {}
            if args.trace != 1:
                result.update(measure(WORKLOADS[name], args, base))
            if args.trace != 0:
                traced = traced_pass(WORKLOADS[name], args, base, cli_import_s,
                                     first_id=len(spans))
                spans += traced.pop("spans")
                for key in ("attempted", "failed"):
                    traced[key] += result.get(key, 0)
                traced["problems"] = result.get("problems", []) + traced["problems"]
                result.update(traced)
            document["workloads"][name] = result
            print_report(name, result)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if args.update_expected:
        pinned = {}
        if os.path.exists(oracle.EXPECTED_PATH):
            with open(oracle.EXPECTED_PATH, "r", encoding="utf-8") as fh:
                pinned = json.load(fh)["workloads"]
        pinned.update((n, r["fingerprint"])
                      for n, r in document["workloads"].items())
        with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(
                {"seed": oracle.EXPECTED_SEED, "scale": oracle.EXPECTED_SCALE,
                 "workloads": pinned},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote {oracle.EXPECTED_PATH}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
            fh.write("\n")

    failed = sum(r["failed"] for r in document["workloads"].values())
    if args.workload:
        result = document["workloads"][args.workload]
        shown = result["per_layer"] if args.trace == 1 else result["end_to_end"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m.get("value", m.get("median")),
                       "unit": m["unit"]}
                for name, m in shown.items()
            },
        }))
    if failed:
        print(f"run.py: FAILED: {failed} cell(s) incorrect", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
