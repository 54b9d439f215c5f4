"""Compare two ``run.py --out`` documents, metric by metric.

    python benchmarks/e2e/compare.py BASE.json NEW.json

For every workload × end-to-end metric prints base median, new median,
the ratio new/base and a verdict against the metric's own bound:

* ``regressed``  — the new median is worse than the base by more than the bound;
* ``unresolved`` — either run's median is itself uncertain by more than the
  bound, so the pair cannot show "unchanged" (unless every new sample
  beats every base sample);
* ``ok``         — otherwise.

A median's uncertainty is its standard error under a normal
approximation, estimated from the interquartile range of the run's
samples (their full range below four samples; see ``spread``).  Exits 1 on any ``regressed`` verdict or any increase of
``failed_frac``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys


#: Expected range of n standard-normal draws (the d2 control-chart
#: constant), for estimating a spread from fewer than four samples.
_EXPECTED_RANGE = {2: 1.128, 3: 1.693}


def spread(metric: dict) -> float:
    """Standard error of a run's median as a share of it.

    Normal approximation: 1.2533·σ/√n, with σ estimated robustly — from
    the interquartile range of the samples (IQR/1.349), or below four
    samples from their range.  A single sample says nothing: infinite.
    """
    samples = metric["samples"]
    n = len(samples)
    if n == 1:
        return math.inf
    if n >= 4:
        quartiles = statistics.quantiles(samples, n=4)
        sigma = (quartiles[2] - quartiles[0]) / 1.349
    else:
        sigma = (max(samples) - min(samples)) / _EXPECTED_RANGE[n]
    return 1.2533 * sigma / math.sqrt(n) / metric["median"]


def judge(base: dict, new: dict) -> tuple[float, str]:
    """(new/base ratio, verdict) for one end-to-end metric."""
    lower = base["better"] == "lower"
    ratio = new["median"] / base["median"]
    worse_by = ratio - 1.0 if lower else 1.0 - ratio
    if worse_by > base["bound"]:
        return ratio, "regressed"
    clear_win = (
        max(new["samples"]) < min(base["samples"]) if lower
        else min(new["samples"]) > max(base["samples"])
    )
    if max(spread(base), spread(new)) > base["bound"] and not clear_win:
        return ratio, "unresolved"
    return ratio, "ok"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh)["workloads"])
    base_doc, new_doc = docs
    if set(base_doc) != set(new_doc):
        print(f"compare.py: workload sets differ: {sorted(base_doc)} vs "
              f"{sorted(new_doc)}", file=sys.stderr)
        return 2

    bad = 0
    print(f"{'workload':<22}{'metric':<22}{'base':>14}{'new':>14}"
          f"{'new/base':>10}  verdict")
    for name, base in base_doc.items():
        new = new_doc[name]
        for metric, b in base["end_to_end"].items():
            n = new["end_to_end"][metric]
            ratio, verdict = judge(b, n)
            bad += verdict == "regressed"
            print(f"{name:<22}{metric:<22}{b['median']:>14.4f}"
                  f"{n['median']:>14.4f}{ratio:>10.3f}  {verdict} "
                  f"(bound {b['bound']:.0%}, {b['unit']})")
        worse = new["failed_frac"] > base["failed_frac"]
        bad += worse
        print(f"{name:<22}{'failed_frac':<22}{base['failed_frac']:>14.4f}"
              f"{new['failed_frac']:>14.4f}{'':>10}  "
              f"{'regressed' if worse else 'ok'}")
    if bad:
        print(f"compare.py: {bad} regression(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
