"""The fault-plan grammar, a leaf module.

A :class:`FaultPlan` is the declarative scenario the fault engine
(:mod:`repro.faults`) injects; its canonical :meth:`~FaultPlan.label`
is part of a sweep cell's identity.  The sweep spec parses and labels
plans here, so declaring a faulted grid compiles no engine.

Terms: ``crash@<t>:<node>`` (the node crashes at time ``t``),
``link@<u>-<v>:<t0>-<t1>`` (the tree link drops every message sent in
``[t0, t1)``) and ``loss:<rate>`` (i.i.d. message loss).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import FaultPlanError

__all__ = ["FaultPlan", "parse_fault_plan"]


def _fmt(x: float) -> str:
    """``%g`` where its six digits parse back to ``x``, else the shortest
    text that does — a label must identify its plan."""
    text = format(x, "g")
    return text if float(text) == x else repr(x)


#: What :func:`_fmt` can print.  A window is two of these around a ``-``,
#: which an exponent may also contain (``1e-05-2``).
_FLOAT = r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|nan)"
_WINDOW = re.compile(rf"({_FLOAT})-({_FLOAT})", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A declarative, engine-independent fault scenario.

    Stored canonically (crashes sorted by time then node; link windows
    with ``u < v``, sorted), so equal plans compare equal and
    :meth:`label` is deterministic — it doubles as the plan's identity in
    sweep cell ids.
    """

    #: ``(node, time)`` pairs.
    crashes: tuple[tuple[int, float], ...] = ()
    #: ``(u, v, t_down, t_up)`` windows on tree links.
    link_drops: tuple[tuple[int, int, float, float], ...] = ()
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        crashes = []
        for node, t in self.crashes:
            node, t = int(node), float(t)
            if node < 0:
                raise FaultPlanError(f"crash node must be >= 0, got {node}")
            if not 0 <= t < float("inf"):  # NaN fails both comparisons
                raise FaultPlanError(f"crash time must be finite and >= 0, got {t}")
            crashes.append((node, t + 0.0))  # -0.0 is 0.0 under one label
        crashes.sort(key=lambda c: (c[1], c[0]))
        drops = []
        for u, v, t0, t1 in self.link_drops:
            u, v, t0, t1 = int(u), int(v), float(t0), float(t1)
            if u < 0 or v < 0 or u == v:
                raise FaultPlanError(f"bad link endpoints ({u}, {v})")
            if not 0 <= t0 < t1:
                raise FaultPlanError(
                    f"link window needs 0 <= t_down < t_up, got [{t0}, {t1})"
                )
            drops.append((min(u, v), max(u, v), t0 + 0.0, t1))
        drops.sort()
        rate = float(self.loss_rate)
        if not 0.0 <= rate < 1.0:
            raise FaultPlanError(f"loss rate must be in [0, 1), got {rate}")
        object.__setattr__(self, "crashes", tuple(crashes))
        object.__setattr__(self, "link_drops", tuple(drops))
        object.__setattr__(self, "loss_rate", rate)

    @property
    def empty(self) -> bool:
        """True iff the plan injects nothing."""
        return not self.crashes and not self.link_drops and self.loss_rate == 0.0

    def label(self) -> str:
        """Canonical spec string; ``parse_fault_plan`` round-trips it."""
        terms = [f"crash@{_fmt(t)}:{node}" for node, t in self.crashes]
        terms += [
            f"link@{u}-{v}:{_fmt(t0)}-{_fmt(t1)}"
            for u, v, t0, t1 in self.link_drops
        ]
        if self.loss_rate > 0.0:
            terms.append(f"loss:{_fmt(self.loss_rate)}")
        return ",".join(terms)

    def validate_nodes(self, num_nodes: int) -> None:
        """Raise if any plan entry names a node outside ``[0, num_nodes)``."""
        for node, t in self.crashes:
            if node >= num_nodes:
                raise FaultPlanError(
                    f"crash@{_fmt(t)}:{node} out of range for {num_nodes} nodes"
                )
        for u, v, _, _ in self.link_drops:
            if u >= num_nodes or v >= num_nodes:
                raise FaultPlanError(
                    f"link {u}-{v} out of range for {num_nodes} nodes"
                )


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse a comma-separated fault-plan spec string.

    Terms: ``crash@<t>:<node>``, ``link@<u>-<v>:<t0>-<t1>``,
    ``loss:<rate>``.  An empty/whitespace string is the empty plan.
    Raises :class:`~repro.errors.FaultPlanError` on malformed input.
    """
    crashes: list[tuple[int, float]] = []
    drops: list[tuple[int, int, float, float]] = []
    rate = 0.0
    saw_loss = False
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        try:
            if term.startswith("crash@"):
                when, _, node = term[len("crash@"):].partition(":")
                crashes.append((int(node), float(when)))
            elif term.startswith("link@"):
                edge, _, window = term[len("link@"):].partition(":")
                u, _, v = edge.partition("-")
                times = _WINDOW.fullmatch(window)
                if times is None:
                    raise ValueError(f"window {window!r} is not <t0>-<t1>")
                drops.append((int(u), int(v), float(times[1]), float(times[2])))
            elif term.startswith("loss:"):
                if saw_loss:
                    raise FaultPlanError(f"duplicate loss term {term!r}")
                rate = float(term[len("loss:"):])
                saw_loss = True
            else:
                raise FaultPlanError(
                    f"unknown fault term {term!r} (expected crash@<t>:<node>, "
                    "link@<u>-<v>:<t0>-<t1> or loss:<rate>)"
                )
        except (ValueError, TypeError) as exc:
            raise FaultPlanError(f"malformed fault term {term!r}: {exc}") from exc
    return FaultPlan(tuple(crashes), tuple(drops), rate)
