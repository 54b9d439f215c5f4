"""``sweep --workers K``: several cores always means the shard supervisor.

The kill-and-retry case drives a ``kill_shard`` worker (``conftest.py``)
through the plain ``--workers 2`` command line — no ``--shards`` —
because the default parallel path is the one that must survive a killed
worker.  POSIX-only, like ``test_orchestrator.py``.
"""

import inspect
import os

import pytest

from repro.cli import main
from repro.sweep import iter_sweep, orchestrate_sweep, run_sweep, shard_path

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="worker supervision relies on POSIX signals"
)


def sweep_bytes(tmp_path, name, *flags):
    out = tmp_path / name
    assert main(["sweep", "--grid", "smoke", *flags, "--out", str(out)]) == 0
    return out.read_bytes()


def test_killed_worker_is_retried_on_the_default_parallel_path(
    tmp_path, capsys, kill_shard
):
    whole = sweep_bytes(tmp_path, "one.jsonl", "--workers", "1")
    kill_shard(0)
    capsys.readouterr()
    assert sweep_bytes(tmp_path, "two.jsonl", "--workers", "2") == whole
    captured = capsys.readouterr()
    assert "4 rows merged from 2 shard(s), 1 retry used" in captured.out
    assert "[shard 0] killed by signal 9; retry 1/2" in captured.err
    log = shard_path(str(tmp_path / "two.jsonl"), 0, 2) + ".failures.log"
    with open(log, encoding="utf-8") as fh:
        assert fh.read() == "attempt 1: killed by signal 9\n"


def test_workers_derives_the_shard_count(tmp_path, capsys):
    derived = sweep_bytes(tmp_path, "a.jsonl", "--workers", "2")
    assert "from 2 shard(s)" in capsys.readouterr().out
    explicit = sweep_bytes(tmp_path, "b.jsonl", "--shards", "2", "--workers", "2")
    assert derived == explicit
    for name in ("a.jsonl", "b.jsonl"):
        for i in range(2):
            assert os.path.exists(shard_path(str(tmp_path / name), i, 2))
    # --workers 1 stays the in-process run: no shard files.
    assert sweep_bytes(tmp_path, "c.jsonl", "--workers", "1") == derived
    assert sorted(p.name for p in tmp_path.glob("c.*")) == [
        "c.jsonl", "c.jsonl.lock",
    ]


@pytest.mark.parametrize(
    "flags",
    [
        ["--shard", "0/2", "--workers", "2"],
        ["--workers", "0"],
        ["--shards", "2", "--workers", "0"],
    ],
)
def test_usage_errors_exit_2(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", "smoke", *flags,
              "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_the_removed_parameters_stay_removed():
    assert "workers" not in inspect.signature(run_sweep).parameters
    assert "workers" not in inspect.signature(iter_sweep).parameters
    assert "on_row" not in inspect.signature(run_sweep).parameters
    orchestrate_params = inspect.signature(orchestrate_sweep).parameters
    for name in ("merge", "max_retries", "poll_interval"):
        assert name not in orchestrate_params
