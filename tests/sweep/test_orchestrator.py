"""Orchestrator tests: supervised shard pool, retry, streaming auto-merge.

The kill-and-retry scenarios use the orchestrator's fault-injection hook
(``REPRO_ORCH_FAULT``), which SIGKILLs a shard worker mid-run — the same
mechanism the CI orchestrator smoke drives through the CLI.  Signal
semantics make these POSIX-only.
"""

import os

import pytest

from repro.errors import MergeError, OrchestratorError, ShardFailedError
from repro.sweep import (
    GraphSpec,
    ScheduleSpec,
    SweepSpec,
    dumps_row,
    orchestrate_sweep,
    run_sweep,
    shard_path,
    smoke_grid,
)
from repro.sweep.orchestrator import FAULT_ENV

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="worker supervision relies on POSIX signals"
)

POLL = 0.05


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
        tiny_spec(), str(out), shards=3, workers=2,
        poll_interval=POLL, progress=events.append,
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


def test_supervisor_wakes_when_a_shard_exits(tmp_path):
    """The supervisor waits on the shards' exits, not on the heartbeat: with
    a 30 s ``poll_interval`` the smoke grid (two waves of shards) still
    returns before the first heartbeat is due.  A supervisor that sleeps
    ``poll_interval`` between liveness checks cannot."""
    heartbeat = 30.0
    summary = orchestrate_sweep(
        smoke_grid(), str(tmp_path / "orch.jsonl"), shards=4, workers=2,
        poll_interval=heartbeat,
    )
    assert summary["rows"] == 4 and summary["retries_used"] == 0
    assert summary["elapsed"] < heartbeat


def test_killed_shard_is_retried_and_merge_is_byte_identical(
    tmp_path, monkeypatch
):
    # Shard 0 of 2 (cells 0, 2, 4) dies to SIGKILL after one row, leaving
    # a torn half-row; the retry must resume its file and finish.
    monkeypatch.setenv(FAULT_ENV, "0:1")
    out = tmp_path / "orch.jsonl"
    summary = orchestrate_sweep(
        tiny_spec(), str(out), shards=2, workers=2,
        max_retries=2, poll_interval=POLL,
    )
    assert summary["retries_used"] == 1
    assert out.read_bytes() == one_shot_bytes(tmp_path)
    state0 = summary["shard_states"][0]
    assert state0["attempts"] == 2 and state0["status"] == "done"
    assert "killed by signal" in state0["failures"][0]
    sidecar = shard_path(str(out), 0, 2) + ".failures.log"
    assert "killed by signal" in open(sidecar).read()


def test_retry_budget_exhaustion_raises_with_failure_log(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(FAULT_ENV, "1:always")
    out = tmp_path / "orch.jsonl"
    with pytest.raises(ShardFailedError) as excinfo:
        orchestrate_sweep(
            tiny_spec(), str(out), shards=2, workers=2,
            max_retries=1, poll_interval=POLL,
        )
    # 1 first attempt + 1 retry, both logged for the failed shard.
    assert list(excinfo.value.failures) == [1]
    assert len(excinfo.value.failures[1]) == 2
    # The surviving shard's completed work stays on disk for a rerun.
    healthy = shard_path(str(out), 0, 2)
    assert os.path.exists(healthy) and os.path.getsize(healthy) > 0
    assert not out.exists()


def test_more_shards_than_cells_still_merges(tmp_path):
    out = tmp_path / "orch.jsonl"
    summary = orchestrate_sweep(
        tiny_spec(), str(out), shards=8, workers=3, poll_interval=POLL
    )
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
        orchestrate_sweep(
            tiny_spec(), str(out), shards=2, workers=2, poll_interval=POLL
        )
    assert excinfo.value.problems
    assert not out.exists()


def test_no_resume_discards_stale_shard_files(tmp_path):
    # Same poisoned shard file, but resume=False deletes it up front.
    out = tmp_path / "orch.jsonl"
    stale = shard_path(str(out), 0, 2)
    with open(stale, "w", encoding="utf-8") as fh:
        fh.write(dumps_row({"index": 99, "cell_id": "alien"}) + "\n")
    summary = orchestrate_sweep(
        tiny_spec(), str(out), shards=2, workers=2,
        resume=False, poll_interval=POLL,
    )
    assert summary["rows"] == 6
    assert out.read_bytes() == one_shot_bytes(tmp_path)


def test_malformed_fault_env_fails_fast(tmp_path, monkeypatch):
    # A typo'd hook must fail in the supervisor with the real message,
    # not burn the retry budget on children dying to the parse error.
    monkeypatch.setenv(FAULT_ENV, "0-1")
    with pytest.raises(OrchestratorError, match="I:R"):
        orchestrate_sweep(
            tiny_spec(), str(tmp_path / "orch.jsonl"), shards=2,
            poll_interval=POLL,
        )


def test_bad_arguments_rejected(tmp_path):
    out = str(tmp_path / "orch.jsonl")
    with pytest.raises(OrchestratorError):
        orchestrate_sweep(tiny_spec(), out, shards=0)
    with pytest.raises(OrchestratorError):
        orchestrate_sweep(tiny_spec(), out, shards=2, workers=0)
    with pytest.raises(OrchestratorError):
        orchestrate_sweep(tiny_spec(), out, shards=2, max_retries=-1)


def test_orchestrator_errors_are_sweep_errors():
    from repro.errors import SweepError

    assert issubclass(OrchestratorError, SweepError)
    assert issubclass(ShardFailedError, OrchestratorError)
    assert issubclass(MergeError, SweepError)
