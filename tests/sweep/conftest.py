"""Shared fixtures for the sweep tests."""

from __future__ import annotations

import os
import signal

import pytest

from repro.sweep import dumps_row, iter_sweep, orchestrator


@pytest.fixture
def kill_shard(monkeypatch, tmp_path_factory):
    """Make one supervised shard worker die to ``SIGKILL``.

    ``kill_shard(i)`` patches :func:`repro.sweep.orchestrator.run_sweep`,
    which the forked shard workers inherit: shard ``i``'s first attempt
    appends its first row plus a torn half-row (what a killed writer
    leaves) and kills itself, and later attempts run normally.  With
    ``always=True`` shard ``i`` dies at the start of every attempt.  A
    marker file, not process memory, records the kill, because each
    attempt is a fresh fork of the supervisor.
    """
    marker = tmp_path_factory.mktemp("kill") / "killed"
    real_run_sweep = orchestrator.run_sweep

    def install(index: int, *, always: bool = False) -> None:
        def dying_run_sweep(spec, path, *, shard, **kwargs):
            if shard[0] == index and (always or not marker.exists()):
                marker.touch()
                if not always:
                    row = next(iter_sweep(spec, shard=shard))
                    with open(path, "a", encoding="utf-8") as fh:
                        fh.write(dumps_row(row) + '\n{"torn":')
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_sweep(spec, path, shard=shard, **kwargs)

        monkeypatch.setattr(orchestrator, "run_sweep", dying_run_sweep)

    return install
