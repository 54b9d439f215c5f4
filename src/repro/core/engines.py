"""The arrow engine names, a leaf module.

The sweep spec's ``engine`` check and the CLI's ``--engine`` choices read
them here, so declaring a grid compiles no engine; the two runner
resolvers (:func:`repro.core.fast_arrow.arrow_runner`,
:func:`repro.core.fast_closed_loop.closed_loop_runner`) raise with the
same text.
"""

from __future__ import annotations

__all__ = ["ENGINES", "engine_error_message"]

#: Every arrow engine name, defined once: the sweep spec's ``engine``
#: check, the two runner resolvers (which the fault entry point goes
#: through) and the CLI's ``--engine`` choices all derive from this tuple.
ENGINES = ("fast", "message")


def engine_error_message(engine: object) -> str:
    """The one "engine must be ..." text every validation point raises with."""
    names = " or ".join(repr(name) for name in ENGINES)
    return f"engine must be {names}, got {engine!r}"
