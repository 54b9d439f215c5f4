"""Sweeps on several cores: supervised shard workers, retry, streaming merge.

:func:`orchestrate_sweep` is the one multi-process path of the sweep
layer (``sweep --workers K``, ``sweep --shards M --workers K``): it
partitions the grid round-robin into ``shards`` per-shard JSONL files,
runs them in a supervised pool of at most ``workers`` concurrent shard
processes, streams per-shard progress (cells done / total, rows per second),
retries shards that exit non-zero or are killed — each retry resumes
from the shard's own resumable JSONL, exactly like re-running
``sweep --shard i/m`` by hand — and, once every shard completes, invokes
the streaming :func:`repro.sweep.persist.merge_shards` so ``out_path``
ends up byte-identical to an unsharded run of the same grid.

Supervision model
-----------------
Each shard runs :func:`repro.sweep.executor.run_sweep` in its own child
process (one writer per shard file, so the executor's ``flock`` guard
and resume semantics apply unchanged).  The supervisor sleeps on the
running children's process sentinels, so it wakes the moment one exits
and otherwise once per :data:`POLL_INTERVAL` to report shard-file growth;
a child that exits non-zero or dies to a signal has the failure appended
to the shard's in-memory failure log *and* to an on-disk
``<shard>.failures.log`` sidecar, then is relaunched while its retry
budget (:data:`MAX_RETRIES` per shard) lasts.  A shard that exhausts the
budget raises :class:`repro.errors.ShardFailedError` once the surviving
shards finish — partial work stays on disk and a rerun resumes it.  If
the supervisor itself raises (a ``progress`` sink that fails, a
``KeyboardInterrupt``), it terminates and joins every running child
first, so no writer outlives it holding a shard file's lock.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import (
    MergeError,
    OrchestratorError,
    ShardFailedError,
    SweepError,
)
from repro.sweep import persist
from repro.sweep.executor import import_engines, run_sweep, shard_path
from repro.sweep.spec import SweepSpec

__all__ = ["MAX_RETRIES", "POLL_INTERVAL", "ShardState", "orchestrate_sweep"]

#: Relaunches a failed or killed shard gets before the sweep fails.
MAX_RETRIES = 2

#: Seconds between progress heartbeats while no shard exits.
POLL_INTERVAL = 0.2

#: Progress-event callback: receives small dicts with an ``event`` key
#: (``launch`` / ``progress`` / ``shard-done`` / ``retry`` / ``failed``).
ProgressFn = Callable[[dict[str, Any]], None]


@dataclass
class ShardState:
    """Supervision record for one shard of an orchestrated sweep."""

    index: int
    path: str
    total: int
    status: str = "pending"  # pending | running | done | failed
    attempts: int = 0
    done: int = 0
    rate: float = 0.0
    failures: list[str] = field(default_factory=list)
    # Incremental row-count cursor (byte offset already scanned) and the
    # row count / start time of the current attempt, for the rate.
    _offset: int = 0
    _attempt_base: int = 0
    _attempt_start: float = 0.0

    def snapshot(self) -> dict[str, Any]:
        """Public view of this shard for progress events and summaries."""
        return {
            "shard": self.index,
            "path": self.path,
            "status": self.status,
            "attempts": self.attempts,
            "done": self.done,
            "total": self.total,
            "rate": round(self.rate, 3),
            "failures": list(self.failures),
        }


def _count_rows(state: ShardState) -> None:
    """Refresh ``state.done`` by scanning only bytes appended since last poll.

    Complete rows end in a newline, so counting ``\\n`` bytes counts
    rows; a torn trailing line is invisible until (if ever) completed.
    Resume-time compaction atomically replaces the file, which can only
    shrink it — a size below the cursor restarts the scan from zero.
    """
    try:
        size = os.path.getsize(state.path)
    except OSError:
        state._offset = 0
        state.done = 0
        return
    if size < state._offset:
        state._offset = 0
        state.done = 0
    if size == state._offset:
        return
    with open(state.path, "rb") as fh:
        fh.seek(state._offset)
        while chunk := fh.read(1 << 16):
            state.done += chunk.count(b"\n")
            state._offset += len(chunk)


def _shard_worker(
    spec: SweepSpec, path: str, index: int, count: int
) -> None:
    """Child-process entry point: run one shard, resuming its file."""
    try:
        run_sweep(spec, path, resume=True, shard=(index, count))
    except SweepError as exc:
        print(f"shard {index}/{count}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _launch(
    ctx, spec: SweepSpec, state: ShardState, shards: int
):
    """Start (or restart) one shard's worker process."""
    state.attempts += 1
    state.status = "running"
    _count_rows(state)
    state._attempt_base = state.done
    state._attempt_start = time.monotonic()
    proc = ctx.Process(
        target=_shard_worker,
        args=(spec, state.path, state.index, shards),
    )
    proc.start()
    return proc


def _log_failure(state: ShardState, entry: str) -> None:
    """Record one failed attempt in memory and in the on-disk sidecar."""
    state.failures.append(entry)
    try:
        with open(state.path + ".failures.log", "a", encoding="utf-8") as fh:
            fh.write(entry + "\n")
    except OSError:  # pragma: no cover - the log is best-effort
        pass


def orchestrate_sweep(
    spec: SweepSpec,
    out_path: str,
    *,
    shards: int,
    workers: int = 1,
    resume: bool = True,
    progress: ProgressFn | None = None,
) -> dict[str, Any]:
    """Run ``spec`` as ``shards`` supervised local shard runs, then merge.

    At most ``workers`` shard processes run concurrently; each failed or
    killed shard is relaunched up to :data:`MAX_RETRIES` times, resuming
    from its per-shard JSONL.  ``progress`` (optional) receives event
    dicts — per-shard ``launch`` / ``shard-done`` / ``retry`` /
    ``failed`` transitions plus ``progress`` snapshots carrying cells
    done / total and rows-per-second, per shard and overall — one whenever
    a shard exits and at least one per :data:`POLL_INTERVAL` seconds (the
    heartbeat; a finished shard's slot is refilled at once, not at the
    next tick).

    Returns a summary dict (spec name, per-shard snapshots, retry count,
    merged row count).  Raises :class:`ShardFailedError` when any shard
    exhausts its retry budget (after the other shards finish, so their
    completed work is on disk for a rerun to resume), and
    :class:`MergeError` when the final merge's verification rejects the
    shard files.  With ``resume=False`` existing shard files are deleted
    up front; retries within the run still resume — that is the point of
    supervised retry.
    """
    if shards < 1:
        raise OrchestratorError(f"shards must be >= 1, got {shards}")
    if workers < 1:
        raise OrchestratorError(f"workers must be >= 1, got {workers}")
    emit: ProgressFn = progress if progress is not None else lambda event: None
    total_cells = spec.num_cells()
    states = [
        ShardState(
            index=i,
            path=shard_path(out_path, i, shards),
            total=len(range(i, total_cells, shards)),
        )
        for i in range(shards)
    ]
    if not resume:
        for state in states:
            # A fresh start discards prior shard data AND its failure
            # sidecar — the log must mirror this run's attempts only.
            for stale in (state.path, state.path + ".failures.log"):
                if os.path.exists(stale):
                    os.remove(stale)

    # Imported here, not at module level: every CLI process imports this
    # module, and ``multiprocessing.connection`` pulls in ``selectors`` and
    # ``socket`` (+0.3 MB peak RSS) that only a supervised run needs.
    import multiprocessing
    from multiprocessing.connection import wait

    # Prefer fork (cheap, Linux default); fall back to spawn elsewhere.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    if ctx.get_start_method() == "fork":
        # A shard imports its engines, and numpy on its first variate;
        # importing them once here lets every forked shard inherit them
        # instead of compiling its own.  Not numpy.random, which numpy
        # loads lazily: pre-loading it too raised a sharded sweep's peak
        # resident memory by about 2 MB.
        import numpy  # noqa: F401

        import_engines(spec)
    start = time.monotonic()
    pending = deque(states)
    running: dict[int, Any] = {}
    retries_used = 0
    failed: list[ShardState] = []

    def poll_progress() -> None:
        now = time.monotonic()
        for state in states:
            if state.status == "running":
                _count_rows(state)
                elapsed = max(now - state._attempt_start, 1e-9)
                state.rate = (state.done - state._attempt_base) / elapsed
        done_cells = sum(s.done for s in states)
        emit(
            {
                "event": "progress",
                "done": done_cells,
                "total": total_cells,
                "rate": round(done_cells / max(now - start, 1e-9), 3),
                "shards": [s.snapshot() for s in states],
            }
        )

    try:
        while pending or running:
            while pending and len(running) < workers:
                state = pending.popleft()
                running[state.index] = _launch(ctx, spec, state, shards)
                emit(
                    {
                        "event": "launch",
                        "shard": state.index,
                        "attempt": state.attempts,
                        "total": state.total,
                    }
                )
            # Sleep until a running shard exits, or one heartbeat at most.
            wait([proc.sentinel for proc in running.values()], timeout=POLL_INTERVAL)
            for index in list(running):
                proc = running[index]
                if proc.is_alive():
                    continue
                proc.join()
                code = proc.exitcode
                proc.close()
                del running[index]
                state = states[index]
                # Full recount from byte 0: the incremental cursor can
                # undercount when a retry's resume-compaction shrank the
                # file and appends regrew it past the old offset between
                # polls — exit-time counts must be exact.
                state._offset = 0
                state.done = 0
                _count_rows(state)
                if code == 0:
                    state.status = "done"
                    state.rate = 0.0
                    emit(
                        {
                            "event": "shard-done",
                            "shard": index,
                            "done": state.done,
                            "total": state.total,
                            "attempts": state.attempts,
                        }
                    )
                    continue
                reason = (
                    f"killed by signal {-code}" if code and code < 0
                    else f"exit code {code}"
                )
                entry = f"attempt {state.attempts}: {reason}"
                _log_failure(state, entry)
                if state.attempts <= MAX_RETRIES:
                    retries_used += 1
                    state.status = "pending"
                    pending.append(state)
                    emit(
                        {
                            "event": "retry",
                            "shard": index,
                            "reason": reason,
                            "retries_used": state.attempts,
                            "max_retries": MAX_RETRIES,
                        }
                    )
                else:
                    state.status = "failed"
                    failed.append(state)
                    emit(
                        {
                            "event": "failed",
                            "shard": index,
                            "reason": reason,
                            "failures": list(state.failures),
                        }
                    )
            poll_progress()
    finally:
        # Reached with children still running only when the loop raised:
        # stop them, so no writer outlives the supervisor holding its
        # shard file's lock.
        for proc in running.values():
            proc.terminate()
        for proc in running.values():
            proc.join()
            proc.close()

    if failed:
        detail = "; ".join(
            f"shard {s.index} ({s.path}): {s.failures[-1]}" for s in failed
        )
        raise ShardFailedError(
            f"{len(failed)} shard(s) exhausted their retry budget "
            f"({MAX_RETRIES} retries): {detail}",
            failures={s.index: list(s.failures) for s in failed},
        )

    rows, problems = persist.merge_shards(
        [s.path for s in states], out_path, expect_cells=total_cells
    )
    if problems:
        raise MergeError(
            f"merge of {shards} shard(s) into {out_path} failed "
            f"verification with {len(problems)} problem(s)",
            problems=problems,
        )
    return {
        "spec": spec.name,
        "path": out_path,
        "shards": shards,
        "workers": workers,
        "cells": total_cells,
        "rows": rows,
        "retries_used": retries_used,
        "elapsed": round(time.monotonic() - start, 3),
        "shard_states": [s.snapshot() for s in states],
    }
