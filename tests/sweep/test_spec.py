"""Sweep spec tests: grid expansion, ordering, per-cell seed derivation."""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest

import repro.sweep.spec

from repro.errors import ScheduleError, SweepError
from repro.fault_plan import parse_fault_plan
from repro.sweep import (
    GRIDS,
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    build_graph,
    build_schedule,
    build_tree,
    cell_seed,
    directory_grid,
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


@pytest.mark.parametrize(
    "graph, params",
    [(GraphSpec("complete", (("m", 3),)), {"m": 3}), (GraphSpec("nope"), {})],
    ids=["unknown-parameter", "unknown-family"],
)
def test_a_graph_built_without_of_is_checked_at_spec_build(graph, params):
    """A graph axis value built without ``GraphSpec.of`` once passed the
    spec and failed mid-sweep with a raw ``TypeError`` / ``KeyError``
    carrying no cell id; it fails at spec build with ``of``'s text."""
    with pytest.raises(SweepError) as via_of:
        GraphSpec.of(graph.family, **params)
    with pytest.raises(SweepError) as via_spec:
        SweepSpec("x", (graph,), ("bfs",), (ScheduleSpec.of("one_shot"),), (0,))
    assert str(via_spec.value) == str(via_of.value)


@pytest.mark.parametrize("family", ["poisson", "bursty", "hotspot", "random"])
def test_open_loop_sizes_are_per_node_only(family):
    """An absolute ``count`` once labelled a cell ``poisson(count=30,
    per_node=5)`` while it ran 30 requests on every graph, and ``count=0``
    was rerouted to the per-node default.  The open-loop families take
    ``per_node`` / ``rate_per_node`` only, and a zero is refused."""
    known = "known parameters: .*'per_node'"
    with pytest.raises(SweepError, match=rf"does not accept \['count'\]; {known}"):
        ScheduleSpec.of(family, count=30)
    with pytest.raises(SweepError, match=r"^per_node must be a positive integer, got 0$"):
        ScheduleSpec.of(family, per_node=0)
    # A schedule built without ScheduleSpec.of is checked by its grid.
    with pytest.raises(SweepError, match=rf"does not accept \['count'\]; {known}"):
        dataclasses.replace(smoke_grid(), schedules=(ScheduleSpec(family, (("count", 30),)),))
    if family in ("poisson", "hotspot"):
        with pytest.raises(SweepError, match=r"does not accept \['rate'\]; .*'rate_per_node'"):
            ScheduleSpec.of(family, rate=2.0)
        with pytest.raises(SweepError, match=r"^rate_per_node must be a finite number > 0"):
            ScheduleSpec.of(family, rate_per_node=0.0)


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


@pytest.mark.parametrize("bad", [-1, 1.5, True])
def test_seeds_must_be_non_negative_integers_at_spec_build(bad):
    """A negative seed used to die in numpy's seeding, after the output
    file was created."""
    with pytest.raises(SweepError, match=rf"^seeds must be an integer >= 0, got {bad!r}$"):
        smoke_grid(seeds=(bad,))
    assert smoke_grid(seeds=(np.int64(3),)).seeds == (3,)


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


def _per_cell_ids(spec):
    """Cell ids as the expansion once built them: every label per cell."""
    st = f"/st{spec.service_time}" if spec.service_time else ""
    faults = [parse_fault_plan(f).label() for f in spec.faults]
    return [
        f"{g.label()}/{t}/{s.label()}/s{seed}{st}" + (f"/f[{fl}]" if fl else "")
        for g, t, s, seed, fl in product(
            spec.graphs, spec.trees, spec.schedules, spec.seeds, faults
        )
    ]


def test_cell_ids_equal_the_per_cell_construction():
    """``cell_ids()`` labels each axis value once, and ``cells()`` is
    built on it; the ids are unchanged."""
    faulted = dataclasses.replace(
        fig11_grid((8, 16), seeds=(0, 1), service_time=0.25),
        faults=("", "crash@2.0:1,loss:0.01", "link@1-0:0.5-3"),
    )
    assert len(GRIDS) == 14
    for spec in [*(preset() for preset in GRIDS.values()), faulted]:
        cells = spec.cells()
        assert spec.cell_ids() == [c.cell_id for c in cells] == _per_cell_ids(spec), spec.name
        assert [c.index for c in cells] == list(range(len(cells)))


def test_the_axes_fill_the_cell_fields_in_order():
    """``cells()`` passes the axis values to ``SweepCell`` by position."""
    from repro.sweep.spec import _AXES, SweepCell

    names = [f.name for f in dataclasses.fields(SweepCell)]
    assert names[2:-1] == [axis.cell_field for axis in _AXES]
    (cell,) = dataclasses.replace(smoke_grid(seeds=(3,)), graphs=smoke_grid().graphs[:1]).cells()
    assert (cell.tree, cell.seed, cell.engine, cell.faults, cell.monitors) == (
        "bfs", 3, "fast", "", False
    )


def test_preset_grid_spec_hashes_are_pinned():
    """The results store is keyed by ``spec_hash``: a change to
    ``canonical()`` (or to a preset's defaults) re-keys every stored run,
    and must show up here by name rather than as an empty store.  Every
    preset, the five service-time grids and a ``fig11`` grid with two
    fault plans, a service time and monitors cover every branch of
    ``canonical()``."""
    from repro.sweep.spec import service_time_grids

    faulted = dataclasses.replace(
        fig11_grid((8, 16), seeds=(0, 1), service_time=0.25),
        faults=("crash@2.0:1,loss:0.01", "link@1-0:0.5-3"),
        monitors=True,
    )
    assert {
        **{grid.__name__: grid().spec_hash() for grid in GRIDS.values()},
        **{f"service_time={s.service_time}": s.spec_hash() for s in service_time_grids()},
        "fig11-faulted": faulted.spec_hash(),
    } == {
        "smoke_grid": "4859b54f556b971206233a5766110d1f0f28a5e53b1bcf7f38304baffa650871",
        "fig10_grid": "a1cda86bdaa377551d99e0bc78f30b728b66e57f8462d40eff499daf9b2509cf",
        "fig11_grid": "ac995c5cc9b48918fceaad037decc0658e9ca3948b83e7edfaea29524e9ad6d2",
        "mixed_grid": "09cfb09db3355c60ccdcc6560c3ddd9be8a1dedd20ea811a1f118920de149230",
        "directory_grid": "b03f3757604fec4385cd618d69e02f7f35afd234719dcb3886837a9bba182383",
        "fig9_grid": "2c325e97a7774c66f87e64412409026bf19ffe82597e94b20777d35df50fb1c1",
        "oneshot_grid": "7d5c5a7b77a6fbd34d1f4b8368d0d48c3f3cc035eb51a5909b445b3166d7c6e2",
        "thm319_grid": "5ce5ac7730beddcb77145a3cd59445b9b1e57b888c91c337d92c64e34e7dff2b",
        "thm321_grid": "ac3733ab452792d807d0e2b975df998bfd83a178638b3934b32be045469c8d3e",
        "thm41_grid": "7e256e3391c004c7cdefbef7221b5465d4fb8824c8fa2a8dab0531a6d68e7c23",
        "thm42_grid": "5ecb52cda41cda7b24ea6836635f65a0a4a73cba9bae219f0627f7a9e9e576d0",
        "sequential_grid": "2d4edd32ffe5fee6958c079e7996c5c6a0a9ee153dfbbb1849163ccff1234943",
        "tree_ablation_grid": "5f626d7102626f17051d7ba7ee9eaf339995c7b06c5b2f3861e6076a41e8ad47",
        "protocol_ablation_grid": "7a12c5734fbf2071ea16525e5ecab8dc604130a39838ae8e0d2e6d3e7bf688c0",
        "service_time=0.0": "8b821646925e4dfe14bd0b419f1d9b35c51f032a5afb6428b40ef5c475fb10fa",
        "service_time=0.05": "213f604e8e4fcc3f19c9efa538d6d4a00d51a956ce4ad9ef75a7b961b24fb881",
        "service_time=0.1": "d11bf47dbb2023b9d78381af877cc987bd9ca65790f2d0adb745424c3ab4c651",
        "service_time=0.2": "3d84a15d32ba9242985c38445d0a6cdf677fc765a9426ce7bb5fa08558a046f9",
        "service_time=0.4": "4647809698d31a767899e5f98e411431003a7c92996f6064205ff3dc8421f945",
        "fig11-faulted": "dc4724d703c1390ce15374d7c8a2931a18597f5a5ad9a1016ea05b1de3a9d48f",
    }


#: Values that used to truncate (an integer parameter given a bool or a
#: non-integral number) or pass the spec only to fail inside a worker.
BAD_PARAMS = [
    ("ratio", {"count": 7.9}, "count"),
    ("ratio", {"count": True}, "count"),
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
        ("ratio", {"count": np.int64(7)}),
    ]:
        assert ScheduleSpec.of(family, **params).kwargs() == params
    module = repro.sweep.spec
    presets = [getattr(module, name) for name in module.__all__ if name.endswith("_grid")]
    assert len(presets) == 14
    for preset in [*presets, module.service_time_grids]:
        specs = preset()
        for spec in specs if isinstance(specs, tuple) else (specs,):
            assert spec.num_cells() == len({c.cell_id for c in spec.cells()})


@pytest.mark.parametrize("axis", ["graphs", "trees", "schedules", "seeds"])
def test_an_empty_axis_is_rejected(axis):
    """An empty axis once built a zero-cell grid, which ``run_sweep``
    reported as ``cells: 0, written: 0`` and an ingest as ``0/0``."""
    with pytest.raises(SweepError, match=rf"^{axis} axis must not be empty$"):
        dataclasses.replace(smoke_grid(), **{axis: ()})


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
