"""Result records shared by all experiments.

An experiment produces an :class:`ExperimentResult`: a set of named series
over a common x-axis plus free-form parameters and notes.  Results render
as ASCII tables/plots (for the CLI) and serialise to JSON (``--json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Series", "ExperimentResult"]


@dataclass(slots=True)
class Series:
    """One named data series ``(x, y)`` with an optional unit label."""

    name: str
    xs: list[float]
    ys: list[float]
    unit: str = ""

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series {self.name!r}: {len(self.xs)} xs vs {len(self.ys)} ys"
            )


@dataclass(slots=True)
class ExperimentResult:
    """A complete experiment outcome (one figure/table of the paper)."""

    experiment_id: str
    title: str
    xlabel: str
    series: list[Series] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def series_by_name(self, name: str) -> Series:
        """Find a series; raises ``KeyError`` with the available names."""
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"{name!r} not in {[s.name for s in self.series]}")

    def to_json(self) -> str:
        """Serialise to a stable JSON document."""
        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "xlabel": self.xlabel,
                "series": [
                    {"name": s.name, "xs": s.xs, "ys": s.ys, "unit": s.unit}
                    for s in self.series
                ],
                "params": self.params,
                "notes": self.notes,
            },
            indent=2,
            sort_keys=True,
        )
