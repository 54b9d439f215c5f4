"""Rendering for the paper's tables: the record, ASCII tables and plots.

Every table is a sweep grid's rows tabulated by
:func:`repro.results.figure_from_rows` (the grids are named presets in
:mod:`repro.sweep`); this package only renders the resulting
:class:`~repro.experiments.records.ExperimentResult` — and draws the Fig. 9
instance picture.
"""

from repro.experiments.ascii_plot import plot, render_instance
from repro.experiments.tables import format_kv, format_table

__all__ = ["format_kv", "format_table", "plot", "render_instance"]
