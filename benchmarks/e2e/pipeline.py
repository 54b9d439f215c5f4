"""Execute one workload's steps in order — the timed child of ``run.py``.

``python pipeline.py <workload> <workdir> [--seed S] [--scale X]
[--inputs DIR]`` runs every step through the public entry point
``repro.cli.main(argv)`` (library calls only where the CLI has no
preset) with ``workdir`` as the current directory, and exits non-zero
as soon as a step fails, then records its peak memory in
``<workdir>/usage.json``.  ``run_steps`` is the same loop for the
in-process traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys


def run_steps(plan, workdir: str, tracer=None) -> None:
    """Run ``plan.steps`` inside ``workdir`` (restoring the cwd after).

    With a ``tracer`` each step becomes a span: layer ``cli`` for a
    ``main(argv)`` call, ``harness`` for a library step's own glue.
    """
    from repro.cli import main

    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for label, action in plan.steps:
            is_cli = not callable(action)
            span = (
                tracer.span("cli.main" if is_cli else "harness.step", step=label)
                if tracer is not None
                else contextlib.nullcontext()
            )
            with span:
                code = main(action) if is_cli else action()
            if is_cli and code:
                raise SystemExit(f"step {label!r} exited with code {code}")
    finally:
        os.chdir(previous)


def peak_rss_kb() -> int:
    """Peak resident set of this process and of the children it reaped.

    Read from ``VmHWM`` rather than ``ru_maxrss``: the latter also keeps
    the footprint of the *spawning* process from before ``exec``, so a
    parent larger than the pipeline would be reported instead of it.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("workdir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--inputs", default="")
    args = parser.parse_args(argv)
    plan = WORKLOADS[args.workload].plan(args.seed, args.scale, args.inputs)
    run_steps(plan, args.workdir)
    with open(os.path.join(args.workdir, "usage.json"), "w") as fh:
        json.dump({"peak_rss_kb": peak_rss_kb()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
