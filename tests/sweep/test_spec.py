"""Sweep spec tests: grid expansion, ordering, per-cell seed derivation."""

import math

import numpy as np
import pytest

import repro.sweep

from repro.errors import ScheduleError, SweepError
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    build_graph,
    build_schedule,
    build_tree,
    cell_seed,
    directory_grid,
    fig10_grid,
    fig11_grid,
    mixed_grid,
    smoke_grid,
)


def small_spec(engine="fast"):
    return SweepSpec(
        name="t",
        graphs=(GraphSpec.of("complete", n=8), GraphSpec.of("grid", rows=3, cols=3)),
        trees=("bfs", "random"),
        schedules=(
            ScheduleSpec.of("one_shot"),
            ScheduleSpec.of("poisson", per_node=3, rate_per_node=0.5),
            ScheduleSpec.of("random", per_node=3),
        ),
        seeds=(0, 1),
        engine=engine,
    )


def test_expansion_count_is_axis_product():
    spec = small_spec()
    cells = spec.cells()
    assert len(cells) == 2 * 2 * 3 * 2
    assert spec.num_cells() == len(cells)


def test_expansion_order_is_nested_loop_order():
    cells = small_spec().cells()
    # indexes are sequential and the innermost axis (seeds) varies fastest
    assert [c.index for c in cells] == list(range(len(cells)))
    assert [c.seed for c in cells[:4]] == [0, 1, 0, 1]
    assert cells[0].graph.family == "complete" and cells[-1].graph.family == "grid"
    # cell ids are unique and stable across expansions
    ids = [c.cell_id for c in cells]
    assert len(set(ids)) == len(ids)
    assert ids == [c.cell_id for c in small_spec().cells()]


def test_cell_seed_is_deterministic_and_axis_keyed():
    cells = small_spec().cells()
    seeds = [cell_seed(c) for c in cells]
    assert seeds == [cell_seed(c) for c in small_spec().cells()]
    # distinct axes -> distinct derived seeds (no collisions at this size)
    assert len(set(seeds)) == len(seeds)
    # derived seed depends on the axes, not the cell's position in the grid
    reordered = SweepSpec(
        name="t2",
        graphs=(GraphSpec.of("grid", rows=3, cols=3), GraphSpec.of("complete", n=8)),
        trees=("random", "bfs"),
        schedules=(ScheduleSpec.of("one_shot"),),
        seeds=(1, 0),
    ).cells()
    by_id = {c.cell_id: cell_seed(c) for c in cells}
    for c in reordered:
        if c.cell_id in by_id:
            assert cell_seed(c) == by_id[c.cell_id]


def test_builders_instantiate_every_axis_value():
    for c in mixed_grid(seeds=(0,)).cells():
        s = cell_seed(c)
        g = build_graph(c.graph, s)
        tree = build_tree(c.tree, g, s)
        sched = build_schedule(c.schedule, g.num_nodes, s)
        assert tree.num_nodes == g.num_nodes
        assert len(sched) > 0


def test_relative_schedule_params_scale_with_n():
    spec = ScheduleSpec.of("poisson", per_node=5, rate_per_node=1.0)
    assert len(build_schedule(spec, 8, 0)) == 40
    assert len(build_schedule(spec, 16, 0)) == 80
    absolute = ScheduleSpec.of("poisson", count=30, rate=2.0)
    assert len(build_schedule(absolute, 8, 0)) == 30
    assert len(build_schedule(absolute, 16, 0)) == 30


def test_unknown_axis_values_rejected():
    # SweepError subclasses ScheduleError, so both spellings catch these.
    with pytest.raises(SweepError):
        GraphSpec.of("klein_bottle", n=8)
    with pytest.raises(SweepError):
        GraphSpec.of("gnp", n=24, prob=0.3)  # generator kwarg typo
    with pytest.raises(SweepError):
        ScheduleSpec.of("thundering_herd")
    with pytest.raises(ScheduleError):
        ScheduleSpec.of("poisson", rate_pernode=2.0)  # typo'd key fails loudly
    with pytest.raises(SweepError):
        ScheduleSpec.of("one_shot", count=5)  # param the family ignores
    with pytest.raises(SweepError):
        SweepSpec(
            name="bad",
            graphs=(GraphSpec.of("complete", n=4),),
            trees=("fibonacci",),
            schedules=(ScheduleSpec.of("one_shot"),),
            seeds=(0,),
        )
    with pytest.raises(SweepError):
        smoke_grid(engine="warp")
    # The retired numpy engine is rejected, naming the ones that remain.
    with pytest.raises(SweepError, match="'fast' or 'message'"):
        smoke_grid(engine="batch")


def test_explicit_zero_count_and_rate_rejected():
    """count=0 / rate=0.0 used to be silently rerouted to the per-node
    defaults by a falsy-fallback — running a different workload than the
    cell id claimed.  Both validation layers must refuse them."""
    # At spec-build time (the registry validator)...
    with pytest.raises(SweepError):
        ScheduleSpec.of("poisson", count=0)
    with pytest.raises(SweepError):
        ScheduleSpec.of("poisson", rate=0.0)
    with pytest.raises(SweepError):
        ScheduleSpec.of("hotspot", count=-3)
    with pytest.raises(SweepError):
        ScheduleSpec.of("poisson", per_node=0)
    # ...and at build time for directly constructed specs.
    with pytest.raises(SweepError):
        build_schedule(ScheduleSpec("poisson", (("count", 0),)), 8, 0)
    with pytest.raises(SweepError):
        build_schedule(ScheduleSpec("poisson", (("rate", 0.0),)), 8, 0)
    # Positive explicit values still win over the per-node defaults.
    assert len(build_schedule(ScheduleSpec.of("poisson", count=7), 8, 0)) == 7


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_time_knobs_must_be_finite_and_non_negative_at_spec_build(bad):
    """A NaN service time used to write a ``/stnan`` row holding the
    service-0 run's metrics, an infinite one ``Infinity`` makespans; a NaN
    think time ran as 0."""
    text = rf"must be finite and >= 0, got {bad}"
    with pytest.raises(SweepError, match=rf"^service_time {text}$"):
        fig11_grid((8,), per_node=2, seeds=(0,), service_time=bad)
    with pytest.raises(SweepError, match=rf"^think_time {text}$"):
        ScheduleSpec.of("closed_arrow", think_time=bad)
    with pytest.raises(SweepError, match=rf"^cs_time {text}$"):
        ScheduleSpec.of("directory_arrow", cs_time=bad)


def test_directory_grid_expands_both_designs():
    spec = directory_grid(sizes=(2, 4), acquisitions_per_proc=5)
    assert spec.num_cells() == 4
    families = {c.schedule.family for c in spec.cells()}
    assert families == {"directory_arrow", "directory_home"}


def test_service_time_is_part_of_cell_identity():
    base = small_spec()
    with_service = SweepSpec(
        name="t",
        graphs=base.graphs,
        trees=base.trees,
        schedules=base.schedules,
        seeds=base.seeds,
        service_time=0.1,
    )
    ids_a = {c.cell_id for c in base.cells()}
    ids_b = {c.cell_id for c in with_service.cells()}
    # Re-running a grid with a different service model must not resume
    # into the old file's rows.
    assert ids_a.isdisjoint(ids_b)


def test_arrow_runner_rejects_unknown_engine():
    from repro.core.fast_arrow import arrow_runner, run_arrow_fast
    from repro.core.runner import run_arrow

    assert arrow_runner("fast") is run_arrow_fast
    assert arrow_runner("message") is run_arrow
    for bad in ("Fast", "msg", "", "batch"):
        with pytest.raises(ValueError, match="'fast' or 'message'"):
            arrow_runner(bad)
    # The retired numpy engine left no public name behind either.
    exported: dict = {}
    exec("from repro.core import *", exported)
    assert not [name for name in exported if "batch" in name.lower()]


def test_named_grids_expand():
    assert fig11_grid((8, 16), seeds=(0,)).num_cells() == 2
    assert smoke_grid().num_cells() == 4
    assert mixed_grid().num_cells() == 4 * 3 * 3 * 2


def test_preset_grid_spec_hashes_are_pinned():
    """The results store is keyed by ``spec_hash``: a change to
    ``canonical()`` (or to a preset's defaults) re-keys every stored run,
    and must show up here by name rather than as an empty store."""
    assert {
        grid.__name__: grid().spec_hash()
        for grid in (smoke_grid, fig10_grid, fig11_grid, mixed_grid, directory_grid)
    } == {
        "smoke_grid": "4859b54f556b971206233a5766110d1f0f28a5e53b1bcf7f38304baffa650871",
        "fig10_grid": "98e4d93264cf3d407ead4f977ec3fa3937122505b79e87f812e8e9eadab763ee",
        "fig11_grid": "ac995c5cc9b48918fceaad037decc0658e9ca3948b83e7edfaea29524e9ad6d2",
        "mixed_grid": "09cfb09db3355c60ccdcc6560c3ddd9be8a1dedd20ea811a1f118920de149230",
        "directory_grid": "b03f3757604fec4385cd618d69e02f7f35afd234719dcb3886837a9bba182383",
    }


#: Values that used to truncate (an integer parameter given a bool or a
#: non-integral number) or pass the spec only to fail inside a worker.
BAD_PARAMS = [
    ("poisson", {"count": 7.9}, "count"),
    ("poisson", {"count": True}, "count"),
    ("poisson", {"per_node": 2.5}, "per_node"),
    ("closed_centralized", {"center": 1.5}, "center"),
    ("directory_home", {"home": 2.7}, "home"),
    ("hotspot", {"hot_fraction": 1.5}, "hot_fraction"),
    ("bursty", {"burst_span": -1.0}, "burst_span"),
    ("ratio", {"latency_lo": math.nan}, "latency_lo"),
]


@pytest.mark.parametrize("family,params,name", BAD_PARAMS)
def test_bad_family_params_fail_at_spec_build_naming_the_parameter(family, params, name):
    with pytest.raises(SweepError, match=rf"^{name} must be"):
        ScheduleSpec.of(family, **params)


def test_legal_family_params_still_build():
    for family, params in [
        ("bursty", {"bursts": 0}),
        ("bursty", {"burst_size": 0}),
        ("closed_arrow", {"think_time": 0}),
        ("closed_centralized", {"center": 0}),
        ("poisson", {"count": np.int64(7)}),
    ]:
        assert ScheduleSpec.of(family, **params).kwargs() == params
    presets = [getattr(repro.sweep, name) for name in repro.sweep.__all__ if name.endswith("_grid")]
    assert len(presets) == 14
    for preset in [*presets, repro.sweep.service_time_grids]:
        specs = preset()
        for spec in specs if isinstance(specs, tuple) else (specs,):
            assert spec.num_cells() == len({c.cell_id for c in spec.cells()})


@pytest.mark.parametrize(
    "axis, change, repeated",
    [
        ("graphs", {"graphs": (GraphSpec.of("complete", n=8),) * 2}, "complete(n=8)"),
        ("trees", {"trees": ("bfs", "bfs")}, "bfs"),
        ("schedules", {"schedules": (ScheduleSpec.of("one_shot"),) * 2}, "one_shot()"),
        ("seeds", {"seeds": (0, 0)}, 0),
        ("faults", {"faults": ("crash@1:0", "crash@1.0:0")}, "crash@1:0"),
    ],
)
def test_a_repeated_axis_value_is_rejected(axis, change, repeated):
    """Two cells with one cell id: a resume skipped the second and an
    ingest of the file refused it."""
    import dataclasses
    import re

    with pytest.raises(SweepError, match=rf"^{axis} axis repeats {re.escape(repr(repeated))}"):
        dataclasses.replace(smoke_grid(seeds=(0,)), **change)
