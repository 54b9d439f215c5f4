#!/usr/bin/env python
"""The Section 4 lower bound, visually (the paper's Figure 9).

Renders the adversarial request instances as (position x time) dot
pictures, runs arrow on them, and shows the measured arrow/optimal
ratios growing with the path diameter — the Ω(log D / log log D) shape.
Both the literal construction from the paper's text and the bitonic
layered reconstruction are shown (the reproduction note in
``repro.lowerbound.layered`` says why the two exist).

Run:  python examples/lower_bound_gallery.py
"""

from repro.analysis import opt_bounds, predict_arrow_run, worst_case_arrow_cost
from repro.experiments import render_instance
from repro.lowerbound import layered_instance, theorem41_instance


def show(title, inst, k):
    cost = worst_case_arrow_cost(inst.tree, inst.schedule)
    bounds = opt_bounds(inst.graph, inst.tree, inst.schedule, 1.0, exact_limit=0)
    print(f"--- {title} (D={inst.D}, k={k}, |R|={len(inst.schedule)}) ---")
    print(render_instance(inst.schedule, inst.D))
    print(f"arrow cost: {cost:.0f}   opt <= {bounds.upper:.0f}   "
          f"ratio >= {cost / bounds.upper:.2f}")
    print()


def main() -> None:
    print("The Figure 9 instance, literal transcription (D=64, k=6):\n")
    show("literal Theorem 4.1", theorem41_instance(64, 6), 6)

    print("Bitonic layered reconstruction at the same scale:\n")
    show("bitonic layered", layered_instance(64, 3), 3)

    print("Ratio growth with D (bitonic layered, k ~ log D / log log D):")
    print(f"{'D':>6} {'k':>3} {'|R|':>6} {'arrow':>8} {'opt<=':>8} {'ratio':>7}")
    for D, k in [(64, 3), (256, 4), (1024, 5)]:
        inst = layered_instance(D, k)
        cost = predict_arrow_run(inst.tree, inst.schedule).arrow_cost
        ob = opt_bounds(inst.graph, inst.tree, inst.schedule, 1.0, exact_limit=0)
        print(f"{D:>6} {k:>3} {len(inst.schedule):>6} {cost:>8.0f} "
              f"{ob.upper:>8.0f} {cost/ob.upper:>7.2f}")


if __name__ == "__main__":
    main()
