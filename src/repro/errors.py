"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
:func:`require_time` is the one range check for time-valued knobs.
"""

from __future__ import annotations

import math
from functools import partial

__all__ = [
    "ReproError",
    "SimulationError",
    "NetworkError",
    "GraphError",
    "TreeError",
    "ProtocolError",
    "ScheduleError",
    "SweepError",
    "FaultPlanError",
    "MonitorViolation",
    "MergeError",
    "OrchestratorError",
    "ShardFailedError",
    "AnalysisError",
    "ResultsError",
    "require_time",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""

    #: The sweep cell whose run raised it (set by the sweep executor).
    cell_id: str | None = None


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class NetworkError(ReproError):
    """Raised for invalid network configurations or message routing."""


class GraphError(ReproError):
    """Raised for malformed graphs (unknown nodes, disconnected inputs...)."""


class TreeError(GraphError):
    """Raised for structures that are not valid (spanning) trees."""


class ProtocolError(ReproError):
    """Raised when a queuing protocol reaches an inconsistent state."""


class ScheduleError(ReproError):
    """Raised for invalid request schedules (negative times, bad nodes...)."""


class SweepError(ScheduleError):
    """Raised by the sweep layer (bad specs, grids, shards, cell families).

    Historically the sweep layer reused :class:`ScheduleError` for every
    spec problem — graph families, tree strategies, engines — so callers
    wrapped sweep construction in ``except ScheduleError``.  ``SweepError``
    subclasses it to keep those callers working while giving sweep
    problems their own catchable, accurately named type.
    """


class FaultPlanError(SweepError):
    """Raised for malformed fault-plan specifications (bad syntax/values)."""


class MonitorViolation(SweepError):
    """A runtime protocol monitor observed a spec violation in a trace.

    Raised by :mod:`repro.monitors` when an engine's event stream breaks
    one of the arrow protocol's invariants.  ``monitor`` names the
    violated invariant (``"one-pointer-per-edge"``, ``"unique-sink"``,
    ``"token-conservation"``, ``"total-order"`` or
    ``"completion-accounting"``) and ``at`` is the simulation time of the
    offending event (``None`` for finalisation-time violations).  A monitor
    replays the stream a chunk at a time, so the exception can surface up
    to a chunk after the transition it is about: ``event`` is that event's
    0-based ordinal in the run's stream (``None`` at finalisation), also
    appended to the message as ``(event #k)``.  ``cell_id`` is set by the
    sweep executor when the monitored run was a grid cell.

    Lives under :class:`SweepError` so sweep drivers that already trap
    sweep-layer failures surface monitor findings through the same path.
    """

    def __init__(
        self,
        message: str,
        *,
        monitor: str,
        at: float | None = None,
        event: int | None = None,
        cell_id: str | None = None,
    ):
        super().__init__(message)
        self.monitor = monitor
        self.at = at
        self.event = event
        self.cell_id = cell_id

    def locate(self, event: int) -> None:
        """Record which event of the stream the violation is about."""
        self.event = event
        self.args = (f"{self.args[0]} (event #{event})",)

    def __reduce__(self):
        # The default reduces to ``cls(*args)``, which cannot supply the
        # keyword-only fields: a violation raised in a pool worker would
        # fail to unpickle in the parent instead of reporting itself.
        rebuild = partial(
            MonitorViolation,
            monitor=self.monitor,
            at=self.at,
            event=self.event,
            cell_id=self.cell_id,
        )
        return rebuild, self.args


class MergeError(SweepError):
    """Raised when merging or verifying sweep result files finds problems.

    Carries the verification failures (one human-readable string per
    problem, naming the offending file and reason) in ``problems`` for
    callers — the CLI, the orchestrator — to report; a merge stops at its
    first problem, so it leaves one, naming the ``path:line``.
    """

    def __init__(self, message: str, problems: tuple[str, ...] | list[str] = ()):
        super().__init__(message)
        self.problems: list[str] = list(problems)


class OrchestratorError(SweepError):
    """Raised by the multi-shard sweep orchestrator.

    Covers caller misuse (a shard or worker count below 1) and
    supervision failures; the retry-budget case gets the more specific
    :class:`ShardFailedError`.
    """


class ShardFailedError(OrchestratorError):
    """A supervised shard exhausted its retry budget.

    ``failures`` maps each failed shard's index to its per-attempt
    failure log (exit codes / signals, in attempt order), mirroring the
    on-disk ``<shard>.failures.log`` sidecar the orchestrator writes.
    """

    def __init__(self, message: str, failures: dict[int, list[str]] | None = None):
        super().__init__(message)
        self.failures: dict[int, list[str]] = dict(failures or {})


class AnalysisError(ReproError):
    """Raised by the analysis machinery (cost measures, TSP solvers...)."""


class ResultsError(ReproError):
    """Raised by the content-addressed results store (:mod:`repro.results`).

    Covers ingest problems (rows that do not belong to the spec being
    ingested, index/cell-id mismatches), lookups that resolve to no — or
    more than one — stored run, and malformed store directories."""


def require_time(name: str, value: float, error: type[ReproError]) -> float:
    """``value`` as a float if it is a finite duration >= 0, else ``error``.

    The one check and message for the service, think and critical-section
    times wherever they enter; each entry point keeps its own error type.
    A NaN fails both comparisons.
    """
    t = float(value)
    if not 0.0 <= t < math.inf:
        raise error(f"{name} must be finite and >= 0, got {value}")
    return t
