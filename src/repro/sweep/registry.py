"""Cell families: what a sweep cell *is* and how it runs.

A **cell family** is the behaviour behind one name on the schedule axis:
the parameters it accepts, each with a value *kind* (checked at
spec-build time, so typos and bad values fail loudly), a builder that
instantiates the cell's simulation inputs from its axes and derived
seed, and a runner-to-row function that executes the workload and
returns the row's metric columns.  The executor is a thin shell over
this table — it derives the cell seed, asks the family for its row, and
prepends the axis identity columns.

The families are one table, :data:`repro.sweep.families.FAMILIES`;
adding a family is adding an entry there.  :func:`get_family` imports
that module on first lookup, and each family imports its engine only
when it runs a cell, so importing :mod:`repro.sweep` (or the results
store, which only reads rows) never compiles the simulators behind it.

A kind is a function ``(name, value)`` that raises :class:`SweepError`
naming the parameter; the kinds are defined once, here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import SweepError, require_time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sweep.spec import SweepCell

__all__ = [
    "CellFamily",
    "get_family",
    "choice",
    "count",
    "duration",
    "fraction",
    "node",
    "nodes",
    "non_negative_int",
    "positive_real",
]

#: (parameter name, value) -> None; raises :class:`SweepError` on a bad value.
Kind = Callable[[str, object], None]
#: Cross-parameter rules on top of the kinds (e.g. ``D`` a multiple of ``s``).
Validator = Callable[[Mapping[str, Any]], None]
#: (cell, derived_seed) -> simulation inputs for the runner-to-row step.
Builder = Callable[["SweepCell", int], Mapping[str, Any]]
#: (cell, derived_seed, built) -> metric columns of the cell's row.
RowFn = Callable[["SweepCell", int, Mapping[str, Any]], dict[str, Any]]


# ----------------------------------------------------------------------
# parameter kinds
# ----------------------------------------------------------------------
def _kind(what: str, ok: Callable[[Any], bool]) -> Kind:
    def check(name: str, value: object) -> None:
        if not ok(value):
            raise SweepError(f"{name} must be {what}, got {value!r}")

    return check


def _is_int(value: object) -> bool:
    """An integer, numpy's included; ``True`` is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: Requests, repetitions, a diameter.
count = _kind("a positive integer", lambda v: _is_int(v) and v > 0)
#: A zero burst count or size is legal.
non_negative_int = _kind("an integer >= 0", lambda v: _is_int(v) and v >= 0)
#: Whether the graph has the node is checked when the cell builds.
node = _kind("a node index (an integer >= 0)", lambda v: _is_int(v) and v >= 0)
nodes = _kind(
    "a non-empty tuple of node indices",
    lambda v: isinstance(v, (tuple, list)) and bool(v) and all(_is_int(x) and x >= 0 for x in v),
)
#: A rate, a gap, a horizon.
positive_real = _kind("a finite number > 0", lambda v: _is_real(v) and 0 < v < math.inf)
fraction = _kind("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1)
_number = _kind("a number", _is_real)


def duration(name: str, value: object) -> None:
    """A finite time >= 0, with :func:`~repro.errors.require_time`'s text."""
    _number(name, value)
    require_time(name, value, SweepError)  # type: ignore[arg-type]


def choice(*names: str) -> Kind:
    """One of ``names``."""
    return _kind(f"one of {list(names)}", lambda v: v in names)


# ----------------------------------------------------------------------
# the family record
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CellFamily:
    """One behaviour on the sweep's schedule axis.

    ``params`` maps each accepted parameter to its kind;
    :meth:`validate_params` checks names and kinds, then ``validate``
    applies the rules that relate several parameters.  ``build`` turns a
    cell into runnable inputs; ``to_row`` executes them and returns the
    metric columns.  ``uses_engine`` documents whether the family honours
    the spec's ``engine`` axis — message-level-only families (the
    directory designs) ignore it, and their rows carry a ``protocol``
    column naming what actually ran.  No row names an engine, and only
    ``benchmarks/e2e/trace.py`` reads this field (to pick the engine it
    probes a cell with).  ``supports_faults`` marks families
    whose ``to_row`` honours a non-empty ``cell.faults`` plan (the
    open-loop arrow families), ``supports_monitors`` those that attach an
    :class:`~repro.monitors.ArrowMonitor` when ``cell.monitors`` is set
    (those and ``closed_arrow``).  Specs reject a fault plan on any
    other family, and monitors on a grid with none of them, at build
    time.  ``engines`` names the modules ``to_row`` imports its engine
    from, inside the function: declaring a grid or reading its rows back
    compiles no engine, and a sweep imports them once before its first
    cell (:func:`repro.sweep.executor.import_engines`).
    """

    name: str
    params: Mapping[str, Kind]
    build: Builder
    to_row: RowFn
    validate: Validator | None = None
    uses_engine: bool = True
    supports_faults: bool = False
    supports_monitors: bool = False
    engines: tuple[str, ...] = ()

    def validate_params(self, params: Mapping[str, object]) -> None:
        """Reject unknown parameter names, values of the wrong kind, then
        cross-parameter violations (hook)."""
        unknown = set(params) - set(self.params)
        if unknown:
            raise SweepError(
                f"cell family {self.name!r} does not accept {sorted(unknown)}; "
                f"known parameters: {sorted(self.params)}"
            )
        for key, value in params.items():
            self.params[key](key, value)
        if self.validate is not None:
            self.validate(params)

    def execute(self, cell: "SweepCell", derived: int) -> dict[str, Any]:
        """Build and run one cell; return its metric columns."""
        return self.to_row(cell, derived, self.build(cell, derived))


def get_family(name: str) -> CellFamily:
    """Look up a cell family by schedule-axis name.

    The table is imported here, on first use; an import that fails
    leaves no module behind, so the next lookup raises the same error.
    """
    from repro.sweep.families import FAMILIES

    try:
        return FAMILIES[name]
    except KeyError:
        raise SweepError(f"unknown cell family {name!r}; know {sorted(FAMILIES)}") from None
