"""Content-addressed results store + analysis pipeline over sweep JSONL.

Grids produce large merged JSONL artifacts (the sweep executor, shard
orchestrator and streaming merge); this package makes them *legible*
without re-running a single simulation:

* :mod:`repro.results.store` — a content-addressed store keyed by the
  canonical :meth:`~repro.sweep.spec.SweepSpec.spec_hash`, with
  incremental, idempotent ingest of (possibly partial) sweep JSONL;
* :mod:`repro.results.figures` — canonical tables/plots per paper
  figure, rebuilt from stored rows;
* :mod:`repro.results.compare` — cross-run comparison (branch vs
  committed baseline) with per-cell percent deltas;

all surfaced through the ``repro-arrow results`` CLI subcommand group
(``ingest`` / ``list`` / ``table`` / ``plot`` / ``compare``).

Grid-level latency percentiles aggregate in one streaming pass: each
stored row's histogram is counted at its bucket midpoints
(:class:`~repro.sweep.stats.MidpointCounts`) and percentiles are
nearest-rank over those midpoints — within half a bucket width of the
true value, the max exact.
"""

from repro.results.compare import compare_rows
from repro.results.figures import FIGURES, figure_from_rows
from repro.results.store import ResultsStore

__all__ = ["FIGURES", "ResultsStore", "compare_rows", "figure_from_rows"]
