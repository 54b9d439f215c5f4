"""Float totals that reach a row or a printed table, a leaf module.

The sweep families, the directory rows, :class:`repro.core.queueing.RunResult`
and ``results compare`` total their floats here, so reading stored rows
back compiles no engine.  A results table streams its rows and keeps a
running total per point, the same left-to-right accumulation.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["float_total"]


def float_total(values: Iterable[float]) -> float:
    """Sum ``values`` in one left-to-right IEEE-754 accumulation.

    Every float total that reaches a sweep row goes through here rather
    than the builtin ``sum``: CPython 3.12 made ``sum`` over floats
    compensated (Neumaier), so ``sum(latencies)`` differs in its last bits
    between 3.11 and 3.12 and a stored row would depend on the interpreter
    that wrote it.  A plain loop is what ``sum`` did up to 3.11, on every
    version.  Like ``sum`` it starts from the int ``0``, so the total of
    an empty column keeps its JSON spelling.
    """
    total = 0
    for value in values:
        total += value
    return total
