"""Pluggable cell-family registry: what a sweep cell *is* and how it runs.

A **cell family** is the behaviour behind one name on the schedule axis:
the parameters it accepts (checked at spec-build time so typos fail
loudly), a builder that instantiates the cell's simulation inputs from
its axes and derived seed, and a runner-to-row function that executes
the workload and returns the row's metric columns.  The executor is a
thin shell over this table — it derives the cell seed, asks the family
for its row, and prepends the axis identity columns.

Built-in registrations live in :mod:`repro.sweep.families` (the six
open-loop schedule families, the §5 closed loops, the §5.1 directory
designs and the theorem families) and are loaded lazily on
first lookup, so importing :mod:`repro.sweep.spec` alone is enough to
validate any builtin family name.  Third-party code extends the sweep by
calling :func:`register_family` with its own :class:`CellFamily`; with
multiprocess sweeps the registration must happen at import time of a
module the workers also import (``fork`` workers inherit it either way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import SweepError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sweep.spec import SweepCell

__all__ = ["CellFamily", "register_family", "get_family", "family_names"]

#: Extra parameter validation beyond the accepted-name check; raises
#: :class:`SweepError` on bad values (e.g. ``count=0``).
Validator = Callable[[Mapping[str, object]], None]
#: (cell, derived_seed) -> simulation inputs for the runner-to-row step.
Builder = Callable[["SweepCell", int], Mapping[str, Any]]
#: (cell, derived_seed, built) -> metric columns of the cell's row.
RowFn = Callable[["SweepCell", int, Mapping[str, Any]], dict[str, Any]]


@dataclass(frozen=True, slots=True)
class CellFamily:
    """One pluggable behaviour on the sweep's schedule axis.

    ``accepted`` names the parameters :meth:`validate_params` allows (the
    validator hook can reject bad *values* on top); ``build`` turns a
    cell into runnable inputs; ``to_row`` executes them and returns the
    metric columns.  ``uses_engine`` documents whether the family honours
    the spec's ``engine`` axis — message-level-only families (the
    directory designs) ignore it, and their rows
    carry a ``protocol`` column naming what actually ran.
    ``supports_faults`` marks families whose ``to_row`` honours a
    non-empty ``cell.faults`` plan (the open-loop arrow families); specs
    reject fault plans on any other family at build time.
    """

    name: str
    accepted: frozenset[str]
    build: Builder
    to_row: RowFn
    validate: Validator | None = field(default=None)
    uses_engine: bool = True
    supports_faults: bool = False

    def validate_params(self, params: Mapping[str, object]) -> None:
        """Reject unknown parameter names, then bad values (hook)."""
        unknown = set(params) - self.accepted
        if unknown:
            raise SweepError(
                f"cell family {self.name!r} does not accept {sorted(unknown)}; "
                f"known parameters: {sorted(self.accepted)}"
            )
        if self.validate is not None:
            self.validate(params)

    def execute(self, cell: "SweepCell", derived: int) -> dict[str, Any]:
        """Build and run one cell; return its metric columns."""
        return self.to_row(cell, derived, self.build(cell, derived))


_REGISTRY: dict[str, CellFamily] = {}
_BOOTSTRAPPED = False


def _bootstrap() -> None:
    """Load the builtin registrations exactly once (import side effect).

    The flag is set only after the import succeeds: a failed first import
    must surface its real exception again on the next lookup, not latch
    into misleading ``unknown cell family ... know []`` errors.
    """
    global _BOOTSTRAPPED
    if not _BOOTSTRAPPED:
        import repro.sweep.families  # noqa: F401  (registers builtins)

        _BOOTSTRAPPED = True


def register_family(family: CellFamily, *, replace: bool = False) -> CellFamily:
    """Register ``family`` under its name; returns it for chaining.

    Re-registering a name raises unless ``replace=True`` — overwriting a
    builtin silently would change what existing specs mean.
    """
    if not replace and family.name in _REGISTRY:
        raise SweepError(
            f"cell family {family.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[family.name] = family
    return family


def get_family(name: str) -> CellFamily:
    """Look up a cell family by schedule-axis name."""
    _bootstrap()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SweepError(
            f"unknown cell family {name!r}; know {family_names()}"
        ) from None


def family_names() -> list[str]:
    """Sorted names of every registered family (builtins included)."""
    _bootstrap()
    return sorted(_REGISTRY)
