"""Executor + persistence tests: determinism across workers, resume."""

import os
import pickle

import pytest

from repro.core.engines import ENGINES
from repro.core.event_stream import EventStream
from repro.core.fast_arrow import arrow_runner
from repro.core.queueing import CompletionRecord
from repro.core.requests import Request
from repro.errors import MonitorViolation, ReproError
from repro.monitors import ArrowMonitor
from repro.spanning.tree import SpanningTree
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    cell_seed,
    dumps_row,
    execute_cell,
    iter_sweep,
    orchestrate_sweep,
    run_sweep,
    smoke_grid,
)
from repro.sweep.families import FAMILIES
from repro.sweep.persist import iter_rows
from repro.sweep.registry import CellFamily, get_family
from monitor_helpers import events_seen


def tiny_spec(engine="fast"):
    return SweepSpec(
        name="tiny",
        graphs=(GraphSpec.of("complete", n=6), GraphSpec.of("path", n=7)),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("poisson", per_node=4, rate_per_node=0.5),),
        seeds=(0, 1, 2),
        engine=engine,
    )


def test_one_vs_four_workers_identical_jsonl(tmp_path):
    p1 = tmp_path / "w1.jsonl"
    p4 = tmp_path / "w4.jsonl"
    s1 = run_sweep(tiny_spec(), str(p1))
    s4 = orchestrate_sweep(tiny_spec(), str(p4), shards=4, workers=4)
    assert s1["written"] == s4["rows"] == 6
    assert p1.read_bytes() == p4.read_bytes()


def test_rows_are_in_grid_order_and_complete(tmp_path):
    p = tmp_path / "out.jsonl"
    run_sweep(tiny_spec(), str(p))
    rows = list(iter_rows(str(p)))
    assert [r["index"] for r in rows] == list(range(6))
    assert {r["cell_id"] for r in rows} == {c.cell_id for c in tiny_spec().cells()}
    for r in rows:
        assert r["requests"] > 0
        assert r["makespan"] >= 0.0


def test_resume_skips_completed_cells(tmp_path):
    p = tmp_path / "out.jsonl"
    full = run_sweep(tiny_spec(), str(p))
    assert full["skipped"] == 0
    whole = p.read_bytes()
    # Keep only the first two rows; resume must compute exactly the rest.
    lines = whole.decode().strip().split("\n")
    p.write_text("\n".join(lines[:2]) + "\n")
    summary = run_sweep(tiny_spec(), str(p))
    assert summary["skipped"] == 2 and summary["written"] == 4
    assert p.read_bytes() == whole


def test_resume_drops_truncated_trailing_line(tmp_path):
    p = tmp_path / "out.jsonl"
    run_sweep(tiny_spec(), str(p))
    whole = p.read_bytes()
    lines = whole.decode().strip().split("\n")
    p.write_text("\n".join(lines[:3]) + "\n" + lines[4][: len(lines[4]) // 2])
    summary = run_sweep(tiny_spec(), str(p))
    assert summary["skipped"] == 3
    assert p.read_bytes() == whole


def test_resume_tolerates_blank_line_after_truncated_row(tmp_path):
    p = tmp_path / "out.jsonl"
    run_sweep(tiny_spec(), str(p))
    whole = p.read_bytes()
    lines = whole.decode().strip().split("\n")
    # A killed run's partial row followed by a stray newline must still
    # resume (blank lines never promote the truncation to a hard error).
    p.write_text("\n".join(lines[:2]) + "\n" + lines[3][:20] + "\n\n")
    summary = run_sweep(tiny_spec(), str(p))
    assert summary["skipped"] == 2 and summary["written"] == 4
    assert p.read_bytes() == whole


def test_no_resume_recomputes_from_scratch(tmp_path):
    p = tmp_path / "out.jsonl"
    run_sweep(tiny_spec(), str(p))
    whole = p.read_bytes()
    summary = run_sweep(tiny_spec(), str(p), resume=False)
    assert summary["written"] == 6 and summary["skipped"] == 0
    assert p.read_bytes() == whole


def test_fast_and_message_engines_produce_identical_metrics():
    fast_cells = tiny_spec("fast").cells()
    msg_cells = tiny_spec("message").cells()
    for cf, cm in zip(fast_cells[:2], msg_cells[:2]):
        assert execute_cell(cf) == execute_cell(cm)


def test_corrupt_mid_file_raises():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
        fh.write(dumps_row({"cell_id": "a"}) + "\n")
        fh.write("{broken\n")
        fh.write(dumps_row({"cell_id": "b"}) + "\n")
        path = fh.name
    try:
        with pytest.raises(ReproError):
            list(iter_rows(path))
    finally:
        os.unlink(path)


def test_iter_sweep_inline_matches_pool(tmp_path):
    inline = list(iter_sweep(tiny_spec()))
    p = tmp_path / "pooled.jsonl"
    orchestrate_sweep(tiny_spec(), str(p), shards=3, workers=3)
    pooled = list(iter_rows(str(p)))
    assert inline == pooled
    assert [r["index"] for r in pooled] == list(range(6))


def test_smoke_grid_end_to_end(tmp_path):
    """A fast and a message sweep of one grid write the same bytes."""
    fast, message = tmp_path / "fast.jsonl", tmp_path / "message.jsonl"
    assert run_sweep(smoke_grid(), str(fast))["written"] == 4
    assert run_sweep(smoke_grid(engine="message"), str(message))["written"] == 4
    assert fast.read_bytes() == message.read_bytes()


# ----------------------------------------------------------------------
# the fast sweep path is columnar: counted, not timed
# ----------------------------------------------------------------------
@pytest.fixture
def requests_made(monkeypatch):
    """The rid of every Request object built while the test runs."""
    made = []
    check = Request.__post_init__

    def counting(self):
        made.append(self.rid)
        check(self)

    monkeypatch.setattr(Request, "__post_init__", counting)
    return made


@pytest.fixture
def records_made(monkeypatch):
    """The rid of every CompletionRecord built while the test runs."""
    made = []
    new = CompletionRecord.__new__

    def counting(cls, rid, *fields):
        made.append(rid)
        return new(cls, rid, *fields)

    monkeypatch.setattr(CompletionRecord, "__new__", counting)
    return made


@pytest.fixture
def streams_made(monkeypatch):
    """The sink of every EventStream (chunk list + ``emit``) built meanwhile."""
    made = []
    init = EventStream.__init__

    def counting(self, sink):
        made.append(sink)
        init(self, sink)

    monkeypatch.setattr(EventStream, "__init__", counting)
    return made


def _one_cell(schedule, engine="fast", **spec_fields):
    return SweepSpec(
        name="columnar",
        graphs=(GraphSpec.of("complete", n=12),),
        trees=("bfs",),
        schedules=(schedule,),
        seeds=(3,),
        engine=engine,
        **spec_fields,
    )


POISSON = ScheduleSpec.of("poisson", per_node=10, rate_per_node=0.5)


@pytest.mark.parametrize(
    "spec",
    [
        _one_cell(POISSON),
        _one_cell(ScheduleSpec.of("one_shot")),
        _one_cell(POISSON, faults=("crash@3.0:1,loss:0.02",), monitors=True),
    ],
    ids=["poisson", "one_shot", "faulted+monitored"],
)
def test_fast_cells_allocate_no_request_object(requests_made, records_made, spec):
    """Schedule → engine → result → row never leaves the columns: no
    ``Request`` on the way in, no ``CompletionRecord`` on the way out.  The
    counts repeat exactly, so this regression guard needs no wall clock."""
    rows = [execute_cell(cell) for cell in spec.cells()]
    assert requests_made == []
    assert records_made == []
    assert all(row["requests"] > 0 for row in rows)


@pytest.mark.parametrize("engine", ENGINES)
def test_only_a_monitored_cell_builds_an_event_stream(streams_made, engine):
    """No sink, no chunk list and no ``emit``: every emission site of an
    unwatched run is a test on ``None`` and no event tuple exists.  A
    monitored cell builds exactly one stream, for its monitor."""
    closed = ScheduleSpec.of("closed_arrow", requests_per_proc=3, think_time=0.1)
    faults = ("crash@3.0:1,loss:0.02",)
    for unwatched in (_one_cell(POISSON, engine), _one_cell(POISSON, engine, faults=faults),
                      _one_cell(closed, engine)):
        assert [execute_cell(cell)["requests"] for cell in unwatched.cells()] and not streams_made
    for watched in (_one_cell(POISSON, engine, faults=("",) + faults, monitors=True),
                    _one_cell(closed, engine, monitors=True)):
        for cell in watched.cells():
            execute_cell(cell)
            (sink,) = streams_made
            assert type(sink) is ArrowMonitor and events_seen(sink) > 100
            streams_made.clear()


def test_message_cell_materialises_each_request_once(requests_made, records_made):
    """The message runner's one ``for req in schedule`` is the only place a
    cell builds Request views: ``RunResult.latency`` and the row columns
    read the time column.  It records completions into the result's
    columns, so it builds no ``CompletionRecord`` either."""
    (row,) = [execute_cell(c) for c in _one_cell(POISSON, engine="message").cells()]
    assert sorted(requests_made) == list(range(row["requests"])) and row["requests"] == 120
    assert records_made == []
    requests_made.clear()
    (fast_row,) = [execute_cell(c) for c in _one_cell(POISSON).cells()]
    assert requests_made == []
    assert fast_row == row


def test_completion_records_are_made_when_completions_is_read(records_made):
    """Either engine's result mints its records on the first read of
    ``completions`` — one per request, in completion order — and not again."""
    (cell,) = _one_cell(POISSON).cells()
    built = get_family(cell.schedule.family).build(cell, cell_seed(cell))
    for engine in ENGINES:
        result = arrow_runner(engine)(built["graph"], built["tree"], built["schedule"])
        assert result.total_latency > 0 and result.order and records_made == []
        assert list(result.completions) == result.rids == records_made
        assert len(records_made) == len(built["schedule"]) == 120
        assert result.completions[0].rid == 0 and len(records_made) == 120
        records_made.clear()


# ----------------------------------------------------------------------
# a monitored failure names its cell
# ----------------------------------------------------------------------
def test_monitor_violation_in_a_sweep_names_the_cell(monkeypatch):
    def to_row(cell, derived, built):
        monitor = ArrowMonitor(built)
        if cell.seed == 1:  # the grid's second cell replays a bad stream
            monitor([("init", 0, 1, 1.0), ("send", 0, 1, 0, 1.0), ("deliver", 0, 0, 2, 2.5)])
        return {"n": 4, "requests": 0}

    monkeypatch.setitem(
        FAMILIES,
        "test_bad_stream",
        CellFamily(
            name="test_bad_stream",
            params={},
            build=lambda cell, derived: SpanningTree([0, 0, 1, 2], root=0),
            to_row=to_row,
        ),
    )
    spec = SweepSpec(
        name="bad",
        graphs=(GraphSpec.of("path", n=4),),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("test_bad_stream"),),
        seeds=(0, 1, 2),
    )
    bad = list(spec.cells())[1]
    rows = iter_sweep(spec)
    assert next(rows)["seed"] == 0
    with pytest.raises(MonitorViolation) as exc:
        next(rows)
    err = exc.value
    assert err.cell_id == bad.cell_id and str(err).startswith(f"cell {bad.cell_id}: [")
    assert (err.monitor, err.at, err.event) == ("token-conservation", 2.5, 2)
    assert str(err).endswith("but was in flight 1->0 (event #2)")
    cause = err.__cause__
    assert type(cause) is MonitorViolation and cause.cell_id is None
    # A pool worker's violation must survive the trip to the parent.
    copy = pickle.loads(pickle.dumps(err))
    assert (str(copy), vars(copy)) == (str(err), vars(err))
