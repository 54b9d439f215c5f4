"""Latency summaries pinned to the bytes the stored rows already hold.

``latency_columns`` is a few reads off one sorted list and
``MidpointCounts`` a dict of bucket midpoints; what can go wrong is that
an edit changes a persisted byte, or that a column comes to depend on the
interpreter (the builtin ``sum`` over floats is compensated since CPython
3.12).  So the expected values here are literals generated at the commit
before the rewrite (PR 21, ``af1d198``, CPython 3.11.7) — never a second
implementation, and never the builtin ``sum``.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import random
import shutil
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

from repro.sweep import stats
from repro.sweep.stats import (
    DEFAULT_BINS,
    MidpointCounts,
    latency_columns,
    percentile_nearest_rank,
)


def corpora() -> dict[str, list[float]]:
    """Fixed latency lists covering the shapes real cells produce."""
    rng = random.Random(0xC0FFEE)
    out = {
        "empty": [],
        "one-zero": [0.0],
        "one": [3.25],
        "all-zero": [0.0] * 17,
        "all-equal": [2.5] * 40,
        # 0.1 * k rounds both ways around the bucket edges.
        "rounding-trap": [0.1 * k for k in range(1, 101)]
        + [10.0, 10.0, 9.999999999999998],
        "ties": [1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 7.5, 7.5],
        "ints": [3, 1, 1, 0, 2],
        "mixed": random.Random(3).choices([0.0, 0.1, 0.1 * 3, 5.0], k=300),
    }
    for i in range(2):
        # Heavy duplication: integer-ish latencies (hop counts).
        out[f"hops-{i}"] = [
            float(rng.randrange(0, 8)) for _ in range(rng.randrange(1, 400))
        ]
        out[f"expo-{i}"] = [
            rng.expovariate(1.0) for _ in range(rng.randrange(1, 400))
        ]
        out[f"uniform-{i}"] = [
            rng.uniform(0.0, 50.0) for _ in range(rng.randrange(1, 400))
        ]
    return out


CORPORA = corpora()

#: corpus -> (mean, p50, p90, p99, max, hist), as the parent commit wrote them.
PARENT_COLUMNS = {
    "empty": (0.0, 0.0, 0.0, 0.0, 0.0,
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "one-zero": (0.0, 0.0, 0.0, 0.0, 0.0,
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "one": (3.25, 3.25, 3.25, 3.25, 3.25,
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    "all-zero": (0.0, 0.0, 0.0, 0.0, 0.0,
        [17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    "all-equal": (2.5, 2.5, 2.5, 2.5, 2.5,
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 40]),
    "rounding-trap": (5.194174757281553, 5.2, 9.3, 10.0, 10.0,
        [6, 6, 6, 6, 7, 6, 6, 6, 7, 6, 6, 6, 7, 6, 6, 10]),
    "ties": (2.5, 1.0, 7.5, 7.5, 7.5,
        [2, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]),
    "ints": (1.4, 1.0, 3.0, 3.0, 3.0,
        [1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]),
    "mixed": (1.3883333333333334, 0.30000000000000004, 5.0, 5.0, 5.0,
        [223, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 77]),
    "hops-0": (3.317725752508361, 3.0, 6.0, 7.0, 7.0,
        [33, 0, 44, 0, 42, 0, 54, 0, 0, 25, 0, 30, 0, 45, 0, 26]),
    "expo-0": (0.9808431728530359, 0.7072688426354398, 2.124637512104051,
        4.512038585307913, 7.139900893948299,
        [120, 78, 54, 27, 21, 12, 5, 4, 1, 3, 3, 0, 0, 0, 1, 1]),
    "uniform-0": (25.97315659176004, 25.78192772759365, 45.40567487824256,
        49.780499054990194, 49.87600884029147,
        [22, 17, 16, 18, 23, 20, 24, 28, 21, 17, 18, 23, 31, 21, 27, 20]),
    "hops-1": (3.780821917808219, 4.0, 7.0, 7.0, 7.0,
        [7, 0, 9, 0, 4, 0, 13, 0, 0, 11, 0, 9, 0, 9, 0, 11]),
    "expo-1": (0.9420157820811363, 0.6183663034984054, 2.147851094918316,
        4.505246072627325, 5.584413723006485,
        [104, 71, 46, 38, 21, 15, 10, 6, 6, 4, 3, 1, 3, 1, 0, 2]),
    "uniform-1": (23.91433368630863, 23.52232383760394, 44.31917688142315,
        49.0497591182999, 49.475375150175005,
        [24, 18, 18, 20, 14, 16, 20, 12, 14, 10, 29, 9, 15, 21, 16, 17]),
}

#: (count, p50, p90, p99, max) of the parent's merged sketch over one row
#: per corpus (96 centroids — it never compressed).
PARENT_GRID = (2127, 2.2686680749713846, 32.731130801441275,
               47.929269676732034, 49.87600884029147)

COLUMN_ORDER = ("latency_mean", "latency_p50", "latency_p90", "latency_p99",
                "latency_max", "latency_hist")


def summarise(module, lists):
    """Every column of every list, plus the grid view over all of them."""
    rows = {name: module.latency_columns(vals) for name, vals in lists.items()}
    grid = module.MidpointCounts()
    for row in rows.values():
        grid.add_histogram(row["latency_hist"], row["latency_max"])
    return {
        "rows": rows,
        "grid": [grid.count, grid.quantile(50), grid.quantile(90),
                 grid.quantile(99), grid.max_value()],
    }


# ----------------------------------------------------------------------
# per-row columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CORPORA))
def test_columns_reproduce_the_parent_bytes(name):
    cols = latency_columns(CORPORA[name])
    assert tuple(cols) == COLUMN_ORDER
    # Compared as JSON text: 3 vs 3.0 or -0.0 vs 0.0 would change a row.
    assert json.dumps(list(cols.values())) == json.dumps(list(PARENT_COLUMNS[name]))
    # A generator can be walked once only: one pass must be enough.
    assert latency_columns(v for v in CORPORA[name]) == cols


def test_columns_take_the_latencies_and_nothing_else():
    from repro.results import ResultsStore

    assert list(inspect.signature(latency_columns).parameters) == ["latencies"]
    assert list(inspect.signature(ResultsStore.grid_sketch).parameters) == [
        "self", "key"
    ]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_columns_are_order_independent_and_conserve_mass(name):
    vals = list(CORPORA[name])
    cols = latency_columns(vals)
    assert sum(cols["latency_hist"]) == len(vals)
    assert len(cols["latency_hist"]) == DEFAULT_BINS
    assert latency_columns(sorted(vals, reverse=True)) == cols
    random.Random(len(vals)).shuffle(vals)
    assert latency_columns(vals) == cols


# ----------------------------------------------------------------------
# grid percentiles rebuilt from histograms
# ----------------------------------------------------------------------
def test_grid_over_the_corpora_reproduces_the_parent_sketch():
    assert tuple(summarise(stats, CORPORA)["grid"]) == PARENT_GRID


@given(
    st.lists(
        st.lists(
            # Zero is the local find; anything else is at least a link delay.
            st.just(0.0) | st.floats(min_value=1e-6, max_value=1e6),
            max_size=60,
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([0.5, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0]),
)
@settings(max_examples=200, deadline=None)
def test_grid_percentile_is_within_half_a_bucket_and_max_is_exact(cells, p):
    """Each value moves at most half its row's bucket width to reach its
    midpoint, so every order statistic moves at most half the widest."""
    grid = MidpointCounts()
    half_width = 0.0
    for cell in cells:
        cols = latency_columns(cell)
        grid.add_histogram(cols["latency_hist"], cols["latency_max"])
        half_width = max(half_width, cols["latency_max"] / DEFAULT_BINS / 2)
    everything = sorted(v for cell in cells for v in cell)
    assert grid.count == len(everything)
    if not everything:
        return
    assert grid.max_value() == everything[-1]
    true = percentile_nearest_rank(everything, p)
    assert abs(grid.quantile(p) - true) <= half_width * (1 + 1e-9)


def test_grid_of_local_finds_only_is_one_spike_at_zero():
    grid = MidpointCounts()
    grid.add_histogram([17] + [0] * 15, 0.0)
    grid.add_histogram([0] * 16, 0.0)  # a zero-request row adds nothing
    assert grid.count == 17
    assert grid.quantile(50) == grid.quantile(100) == grid.max_value() == 0.0


def test_empty_grid_and_bad_percentiles_raise():
    grid = MidpointCounts()
    assert grid.count == 0
    with pytest.raises(ValueError, match="empty"):
        grid.quantile(50)
    with pytest.raises(ValueError, match="empty"):
        grid.max_value()
    grid.add_histogram([1] * 16, 4.0)
    for p in (0, -1, 100.5, math.nan):
        with pytest.raises(ValueError, match=r"\(0, 100\]"):
            grid.quantile(p)


# ----------------------------------------------------------------------
# the same bits on every interpreter this box can start
# ----------------------------------------------------------------------
BARE_SCRIPT = (
    "import importlib.util, json, sys\n"
    "spec = importlib.util.spec_from_file_location('bare_stats', sys.argv[1])\n"
    "stats = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(stats)\n"
    + inspect.getsource(summarise)
    + "print(json.dumps(summarise(stats, json.load(sys.stdin))))\n"
)


def startable(minor: int):
    """``(executable, env)`` of a ``python3.<minor>`` that runs here, or None.

    A pyenv shim exits non-zero until a version is selected, so each
    installed ``3.<minor>.*`` is tried through ``PYENV_VERSION`` as well.
    """
    exe = shutil.which(f"python3.{minor}")
    if exe is None:
        return None
    versions = os.path.join(
        os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv")), "versions"
    )
    installed = sorted(os.listdir(versions)) if os.path.isdir(versions) else []
    selections = [{}] + [
        {"PYENV_VERSION": v} for v in installed if v.startswith(f"3.{minor}.")
    ]
    for selection in selections:
        env = {**os.environ, **selection}
        probe = subprocess.run([exe, "-I", "-c", "pass"], env=env, capture_output=True)
        if probe.returncode == 0:
            return exe, env
    return None


@pytest.mark.parametrize("minor", [10, 12, 13])
def test_other_interpreters_compute_the_same_json(minor):
    """``stats.py`` loaded by file path into a bare interpreter (``-I``: no
    PYTHONPATH, no site-packages of ours) — it imports only the standard
    library — must print the JSON this interpreter computes."""
    found = startable(minor)
    if found is None:
        pytest.skip(f"no python3.{minor} starts on this machine")
    exe, env = found
    done = subprocess.run(
        [exe, "-I", "-c", BARE_SCRIPT, stats.__file__],
        input=json.dumps(CORPORA),
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.dumps(summarise(stats, CORPORA)) + "\n"
