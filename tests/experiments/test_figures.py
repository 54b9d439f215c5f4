"""Experiment-harness tests: each paper figure's qualitative shape.

Fig. 10, Fig. 11, the §5.1 directory comparison, Fig. 9 and the
sequential regime are tabulated from their sweep-grid rows — the one
producer behind ``repro-arrow fig10|fig11|directory|fig9|sequential`` —
at the paper's sizes and at a reduced scale; a regression in any
figure's *shape* is caught by ``pytest tests/``.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import ScheduleError, SweepError
from repro.experiments import render_instance
from repro.lowerbound import layered_instance
from repro.results import figure_from_rows
from repro.sweep import (
    directory_grid,
    fig10_grid,
    iter_sweep,
)
from repro.sweep.spec import fig9_grid, sequential_grid

#: scale -> (system sizes, requests/processor, centralized slowdown floor
#: from the smallest to the largest size).
CLOSED_LOOP_SCALES = {
    "paper": ((2, 4, 8, 16, 32, 48, 64, 76), 200, 2.5),
    "reduced": ((2, 8, 24, 48), 80, 2.0),
}


@pytest.fixture(scope="module", params=sorted(CLOSED_LOOP_SCALES))
def closed_loop(request):
    """Rows of the §5 closed-loop grid, shared by Fig. 10 and Fig. 11."""
    sizes, requests_per_proc, slowdown = CLOSED_LOOP_SCALES[request.param]
    spec = fig10_grid(sizes, requests_per_proc=requests_per_proc)
    return list(iter_sweep(spec)), slowdown


def test_fig10_shape(closed_loop):
    rows, slowdown = closed_loop
    fig = figure_from_rows("fig10", rows)
    arrow = fig.series_by_name("closed_arrow").ys
    central = fig.series_by_name("closed_centralized").ys
    # Centralized: super-linear overall growth from 2 processors up.
    assert central[-1] > slowdown * central[0]
    # Arrow: nearly flat (well under 2x across a 24-38x size increase).
    assert arrow[-1] < 2.0 * arrow[0]
    # Arrow wins at scale.
    assert arrow[-1] < 0.6 * central[-1]
    # At the smallest size the two are comparable (the paper's curves
    # start together): within 25% of each other.
    assert abs(arrow[0] - central[0]) < 0.25 * central[0]


def test_fig11_shape(closed_loop):
    rows = [r for r in closed_loop[0] if r["schedule"].startswith("closed_arrow")]
    hops = figure_from_rows("fig11", rows).series_by_name("closed_arrow").ys
    local = (
        figure_from_rows("fig11", rows, metric="local_find_fraction")
        .series_by_name("closed_arrow")
        .ys
    )
    # Mean hops per op stays around or below 1 across all system sizes
    # (paper: strictly below 1; we allow a small margin on the 2-proc
    # ping-pong case where every find crosses the single link).
    assert all(h <= 1.1 for h in hops)
    assert all(h < 1.0 for h in hops[1:])
    # Local finds are the reason: a large fraction of requests need zero
    # messages once contention sets in.
    assert all(f >= 0.4 for f in local[1:])
    # No growth trend with system size (the curve is flat-ish, not rising
    # with the diameter log n).
    assert hops[-1] < hops[1] * 1.6


def test_directory_shape():
    rows = list(iter_sweep(directory_grid((2, 4, 8, 12, 16))))
    assert all(r["exclusion_ok"] for r in rows)
    fig = figure_from_rows("directory", rows)
    arrow = fig.series_by_name("directory_arrow").ys
    home = fig.series_by_name("directory_home").ys
    # Arrow wins at every size in the §5.1 range ...
    assert all(a < h for a, h in zip(arrow, home))
    # ... and by a widening absolute margin as the system grows.
    assert home[-1] - arrow[-1] > home[0] - arrow[0]
    # Message economics: direct hand-off beats home indirection.
    msgs = figure_from_rows("directory", rows, metric="msgs_per_acquisition")
    assert all(
        a < h
        for a, h in zip(
            msgs.series_by_name("directory_arrow").ys,
            msgs.series_by_name("directory_home").ys,
        )
    )


def _fig9(D, k, variant):
    """The one lower-bound row of a Fig. 9 grid."""
    (row,) = iter_sweep(fig9_grid(D, k, variant))
    return row


def test_fig9_literal_and_layered_reports():
    lit = _fig9(64, 4, "literal")
    lay = _fig9(64, 4, "layered")
    assert lit["requests"] > 0 and lay["requests"] > 0
    assert lay["arrow_ratio"] > lit["arrow_ratio"] * 0.9
    assert lay["opt_upper"] <= 3 * 64
    with pytest.raises(SweepError, match="variant"):
        fig9_grid(64, 4, "nope")


def test_lowerbound_cells_are_named_by_their_instance():
    """The schedule axis names the Section 4 instance; the construction
    fixes graph and tree, so those axes hold one placeholder and nothing
    else."""
    from repro.sweep import GraphSpec, ScheduleSpec, SweepSpec

    (cell,) = fig9_grid(64, 4, "layered").cells()
    assert cell.cell_id == "path(n=1)/bfs/lowerbound(D=64,k=4,variant=layered)/s0"
    instance = ScheduleSpec.of("lowerbound", D=64)
    for graph, tree in ((GraphSpec.of("path", n=65), "bfs"), (GraphSpec.of("path", n=1), "mst")):
        spec = SweepSpec("x", (graph,), (tree,), (instance,), (0,))
        with pytest.raises(SweepError, match="graph and tree axes"):
            list(iter_sweep(spec))
    for bad in ({}, {"D": 64, "s": 3}):
        with pytest.raises(SweepError, match="D, a multiple of s"):
            ScheduleSpec.of("lowerbound", **bad)


#: Section 4 instances the constructions reject, with the spec's message
#: after ``lowerbound <variant>: ``.
BAD_LOWERBOUNDS = [
    ({"D": 63}, "D must be a power of two >= 4, got 63"),
    ({"D": 2}, "D must be a power of two >= 4, got 2"),
    ({"D": 3, "variant": "literal"}, "D must be a power of two >= 2, got 3"),
    ({"D": 64, "k": 3, "variant": "literal"}, "k must be even, got 3"),
    ({"D": 64, "k": 1, "variant": "literal"}, "k must be even, got 1"),
    ({"D": 96, "s": 2, "variant": "stretch"}, "D/s must be a power of two >= 2, got 48"),
    ({"D": 3, "s": 3, "variant": "stretch"}, "D/s must be a power of two >= 2, got 1"),
    ({"D": 32, "s": 2, "k": 5, "variant": "stretch"}, "k must be even, got 5"),
]
#: Edge instances the constructions build: the spec must accept them.
GOOD_LOWERBOUNDS = [
    {"D": 4},
    {"D": 64, "k": 1},
    {"D": 2, "variant": "literal"},
    {"D": 64, "k": 2, "variant": "literal"},
    {"D": 6, "s": 3, "variant": "stretch"},
    {"D": 2, "variant": "stretch"},
]


def _lowerbound_cell(params):
    """A lowerbound cell of ``params``, built without the spec's check."""
    from repro.sweep import ScheduleSpec
    from repro.sweep.spec import LOWERBOUND_AXES, SweepCell

    graph, tree = LOWERBOUND_AXES
    schedule = ScheduleSpec("lowerbound", tuple(sorted(params.items())))
    return SweepCell(0, "x", graph, tree, schedule, 0, "fast", 0.0)


@pytest.mark.parametrize("params, message", BAD_LOWERBOUNDS)
def test_a_lowerbound_instance_the_builders_reject_fails_at_spec_build(params, message):
    """``thm41 --diameters 3`` used to create its output file and then fail
    in the worker; ``fig9 -D 63`` ended in a ScheduleError traceback."""
    from repro.sweep import ScheduleSpec
    from repro.sweep.registry import get_family

    variant = params.get("variant", "layered")
    with pytest.raises(SweepError, match=f"^lowerbound {variant}: {message}$"):
        ScheduleSpec.of("lowerbound", **params)
    # The builders keep their own check for library callers.
    with pytest.raises(ScheduleError):
        get_family("lowerbound").build(_lowerbound_cell(params), 0)


@pytest.mark.parametrize("params", GOOD_LOWERBOUNDS)
def test_a_lowerbound_instance_the_builders_accept_passes_spec_build(params):
    from repro.sweep import ScheduleSpec
    from repro.sweep.registry import get_family

    assert ScheduleSpec.of("lowerbound", **params).kwargs() == params
    assert get_family("lowerbound").build(_lowerbound_cell(params), 0)["D"] == params["D"]


def test_lowerbound_spec_build_imports_no_construction():
    """The check reads the parameters only: declaring the Section 4 grids
    leaves the construction (and the tree layer under it) unimported."""
    code = (
        "import sys\n"
        "from repro.sweep.spec import fig9_grid, thm41_grid, thm42_grid\n"
        "fig9_grid(), thm41_grid(), thm42_grid()\n"
        "print(sorted(m for m in ('repro.lowerbound', 'repro.spanning.tree') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fig9_paper_instance():
    """Figure 9 at D = 64: the comb bound keeps the optimal cost O(D) while
    arrow pays a growing factor more (see repro.lowerbound.layered)."""
    literal = _fig9(64, 6, "literal")
    layered = _fig9(64, 3, "layered")
    # Opt stays linear in D on both variants (comb bound / heuristic).
    assert literal["opt_upper"] <= 3 * 64
    assert layered["opt_upper"] <= 3 * 64
    # The comb spanning structure is O(D) as the proof requires.
    assert literal["comb_weight"] <= 6 * 64
    # Arrow pays a real factor more than opt on both.
    assert literal["arrow_ratio"] >= 1.3
    assert layered["arrow_ratio"] >= 2.0


def test_fig9_picture_dimensions(capsys):
    from repro.cli import main

    assert main(["fig9", "-D", "64", "-k", "4"]) == 0
    picture = capsys.readouterr().out.split("\n\n")[0]
    assert picture == render_instance(layered_instance(64, 4).schedule, 64)
    lines = picture.splitlines()
    assert len(lines) == 5  # one row per time layer 0..4
    assert all("*" in line for line in lines)


def test_render_instance_marks_requests():
    from repro.core.requests import RequestSchedule

    sched = RequestSchedule([(0, 0.0), (8, 1.0)])
    pic = render_instance(sched, 8, width=9)
    rows = pic.splitlines()
    assert rows[0].count("*") == 1
    assert rows[1].count("*") == 1


def _sequential_holds(res):
    """Demmer–Herlihy: every op costs <= D, and the ratio is <= s."""
    for c, d in zip(res["max per-op latency"], res["tree diameter D"]):
        assert c <= d + 1e-9
    ratio = res["total ratio (vs opt upper bd)"]
    for r, s in zip(ratio, res["tree stretch s"], strict=True):
        assert r <= s + 1e-9


def test_sequential_experiment_bounds():
    rows = list(iter_sweep(sequential_grid(requests=15, seed=1)))
    fig = figure_from_rows("sequential", rows)
    _sequential_holds({s.name: s.ys for s in fig.series})


def test_sequential_experiment_paper_scale(published):
    """The sequential regime baseline ([4], §1.1): per-op <= D, ratio <= s."""
    _sequential_holds(published("sequential")["sequential"])
