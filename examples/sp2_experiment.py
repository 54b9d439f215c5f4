#!/usr/bin/env python
"""The paper's Section 5 experiment, end to end (Figures 10 and 11).

Recreates the SP2 measurement on the simulated testbed: closed-loop
enqueues per processor, arrow on a balanced binary tree vs the two-message
centralized protocol, sweeping the system size.  Prints both figures as
tables and ASCII plots.

Scaled down by default (300 requests/processor instead of 100 000 — the
loop reaches steady state quickly); pass a request count to change that:

Run:  python examples/sp2_experiment.py [requests_per_proc]
"""

import sys

from repro.experiments import format_table, plot
from repro.results import figure_from_rows
from repro.sweep import fig10_grid, iter_sweep


def main() -> None:
    rpp = int(sys.argv[1]) if len(sys.argv) > 1 else 300

    # One closed-loop sweep over the published sizes feeds both figures:
    # Fig. 10 tabulates the rows' makespan, Fig. 11 the arrow rows' hops
    # per operation.
    rows = list(iter_sweep(fig10_grid(requests_per_proc=rpp)))
    fig10 = figure_from_rows("fig10", rows)
    print(format_table(fig10))
    print()
    print(plot(fig10))
    print()

    fig11 = figure_from_rows(
        "fig11", [r for r in rows if r["schedule"].startswith("closed_arrow")]
    )
    print(format_table(fig11))
    print()
    print(plot(fig11))

    arrow = fig10.series_by_name("closed_arrow").ys
    central = fig10.series_by_name("closed_centralized").ys
    hops = fig11.series_by_name("closed_arrow").ys
    print()
    print(f"arrow slowdown  2 -> 76 procs: {arrow[-1]/arrow[0]:.2f}x "
          f"(paper: nearly flat)")
    print(f"central slowdown 2 -> 76 procs: {central[-1]/central[0]:.2f}x "
          f"(paper: linear)")
    print(f"arrow hops/op at 76 procs: {hops[-1]:.2f} (paper: < 1)")


if __name__ == "__main__":
    main()
