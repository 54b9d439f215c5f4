"""Orchestrator tests: supervised shard pool, retry, streaming auto-merge.

The kill-and-retry scenarios use the ``kill_shard`` fixture
(``conftest.py``), which patches the ``run_sweep`` the forked shard
workers inherit so that one of them SIGKILLs itself mid-run — the same
patch the CI orchestrator smoke installs around the CLI.  Signal
semantics make these POSIX-only.
"""

import multiprocessing
import os

import pytest

from repro.errors import MergeError, OrchestratorError, ShardFailedError
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    dumps_row,
    mixed_grid,
    orchestrate_sweep,
    run_sweep,
    shard_path,
    smoke_grid,
)
from repro.sweep import orchestrator

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="worker supervision relies on POSIX signals"
)


def tiny_spec():
    return SweepSpec(
        name="tiny",
        graphs=(GraphSpec.of("complete", n=6), GraphSpec.of("path", n=7)),
        trees=("bfs",),
        schedules=(ScheduleSpec.of("poisson", per_node=4, rate_per_node=0.5),),
        seeds=(0, 1, 2),
    )


def one_shot_bytes(tmp_path):
    whole = tmp_path / "whole.jsonl"
    run_sweep(tiny_spec(), str(whole))
    return whole.read_bytes()


def test_orchestrated_sweep_matches_one_shot_run(tmp_path):
    out = tmp_path / "orch.jsonl"
    events = []
    summary = orchestrate_sweep(
        tiny_spec(), str(out), shards=3, workers=2, progress=events.append
    )
    assert summary["rows"] == 6
    assert summary["retries_used"] == 0
    assert out.read_bytes() == one_shot_bytes(tmp_path)
    # Shard files survive the merge for audit/resume.
    for i in range(3):
        assert os.path.exists(shard_path(str(out), i, 3))
    kinds = {e["event"] for e in events}
    assert {"launch", "shard-done", "progress"} <= kinds
    final = [e for e in events if e["event"] == "progress"][-1]
    assert final["done"] == 6 and final["total"] == 6
    assert all("rate" in s for s in final["shards"])


def test_supervisor_wakes_when_a_shard_exits(tmp_path, monkeypatch):
    """The supervisor waits on the shards' exits, not on the heartbeat: with
    a 30 s ``POLL_INTERVAL`` the smoke grid (two waves of shards) still
    returns before the first heartbeat is due.  A supervisor that sleeps
    ``POLL_INTERVAL`` between liveness checks cannot."""
    heartbeat = 30.0
    monkeypatch.setattr(orchestrator, "POLL_INTERVAL", heartbeat)
    summary = orchestrate_sweep(
        smoke_grid(), str(tmp_path / "orch.jsonl"), shards=4, workers=2
    )
    assert summary["rows"] == 4 and summary["retries_used"] == 0
    assert summary["elapsed"] < heartbeat


def test_killed_shard_is_retried_and_merge_is_byte_identical(
    tmp_path, kill_shard
):
    # Shard 0 of 2 (cells 0, 2, 4) dies to SIGKILL after one row, leaving
    # a torn half-row; the retry must resume its file and finish.
    kill_shard(0)
    out = tmp_path / "orch.jsonl"
    summary = orchestrate_sweep(tiny_spec(), str(out), shards=2, workers=2)
    assert summary["retries_used"] == 1
    assert out.read_bytes() == one_shot_bytes(tmp_path)
    state0 = summary["shard_states"][0]
    assert state0["attempts"] == 2 and state0["status"] == "done"
    assert state0["failures"] == ["attempt 1: killed by signal 9"]
    sidecar = shard_path(str(out), 0, 2) + ".failures.log"
    with open(sidecar, encoding="utf-8") as fh:
        assert fh.read() == "attempt 1: killed by signal 9\n"


def test_retry_budget_exhaustion_raises_with_failure_log(
    tmp_path, kill_shard
):
    kill_shard(1, always=True)
    out = tmp_path / "orch.jsonl"
    with pytest.raises(ShardFailedError) as excinfo:
        orchestrate_sweep(tiny_spec(), str(out), shards=2, workers=2)
    # The first attempt and every retry, all logged for the failed shard.
    assert list(excinfo.value.failures) == [1]
    assert len(excinfo.value.failures[1]) == orchestrator.MAX_RETRIES + 1
    # The surviving shard's completed work stays on disk for a rerun.
    healthy = shard_path(str(out), 0, 2)
    assert os.path.exists(healthy) and os.path.getsize(healthy) > 0
    assert not out.exists()


def test_more_shards_than_cells_still_merges(tmp_path):
    out = tmp_path / "orch.jsonl"
    summary = orchestrate_sweep(tiny_spec(), str(out), shards=8, workers=3)
    assert summary["rows"] == 6
    assert out.read_bytes() == one_shot_bytes(tmp_path)
    # Shards beyond the grid ran zero cells but still produced files.
    assert summary["shard_states"][7]["total"] == 0


def test_stale_alien_rows_fail_the_final_merge(tmp_path):
    # A leftover row from some other grid poisons shard 0's file; resume
    # keeps it (unknown cell_id), so the auto-merge must reject the run.
    out = tmp_path / "orch.jsonl"
    stale = shard_path(str(out), 0, 2)
    with open(stale, "w", encoding="utf-8") as fh:
        fh.write(dumps_row({"index": 99, "cell_id": "alien"}) + "\n")
    with pytest.raises(MergeError) as excinfo:
        orchestrate_sweep(tiny_spec(), str(out), shards=2, workers=2)
    assert excinfo.value.problems
    assert not out.exists()


def test_no_resume_discards_stale_shard_files(tmp_path):
    # Same poisoned shard file, but resume=False deletes it up front.
    out = tmp_path / "orch.jsonl"
    stale = shard_path(str(out), 0, 2)
    with open(stale, "w", encoding="utf-8") as fh:
        fh.write(dumps_row({"index": 99, "cell_id": "alien"}) + "\n")
    summary = orchestrate_sweep(
        tiny_spec(), str(out), shards=2, workers=2, resume=False
    )
    assert summary["rows"] == 6
    assert out.read_bytes() == one_shot_bytes(tmp_path)


def test_a_raising_supervisor_stops_its_shard_writers(tmp_path):
    # A progress sink that raises while shards run must not leave their
    # writers appending (and holding the shard files' locks) behind it.
    spec = mixed_grid(seeds=(0, 1, 2))
    out = tmp_path / "orch.jsonl"

    def sink(event):
        if event["event"] == "launch" and event["shard"] == 1:
            raise RuntimeError("sink failed")

    with pytest.raises(RuntimeError, match="sink failed"):
        orchestrate_sweep(spec, str(out), shards=2, workers=2, progress=sink)
    assert multiprocessing.active_children() == []
    # Nothing holds a shard file, so a rerun resumes and merges.
    summary = orchestrate_sweep(spec, str(out), shards=2, workers=2)
    assert summary["rows"] == spec.num_cells()
    whole = tmp_path / "whole.jsonl"
    run_sweep(spec, str(whole))
    assert out.read_bytes() == whole.read_bytes()


def test_bad_arguments_rejected(tmp_path):
    out = str(tmp_path / "orch.jsonl")
    with pytest.raises(OrchestratorError):
        orchestrate_sweep(tiny_spec(), out, shards=0)
    with pytest.raises(OrchestratorError):
        orchestrate_sweep(tiny_spec(), out, shards=2, workers=0)


def test_orchestrator_errors_are_sweep_errors():
    from repro.errors import SweepError

    assert issubclass(OrchestratorError, SweepError)
    assert issubclass(ShardFailedError, OrchestratorError)
    assert issubclass(MergeError, SweepError)
