"""Fault-plan terms, enumerated: labels identify plans, hostile terms fail loudly.

Two properties of the plan mini-language, checked over enumerated
corpora rather than samples:

* a plan's canonical label is its identity in cell ids and spec hashes,
  so over a time lattice that includes values ``%g`` cannot print
  (``1234567.5``), prints with a ``-`` inside (``1e-05``) or prints as a
  word (``inf``), ``parse(label(p)) == p`` and distinct plans get
  distinct labels;
* every term shape x {negative, NaN, +-inf, out-of-range node, duplicate,
  overlapping, empty field} is either a ``FaultPlanError`` or a plan that
  runs to identical, strictly-JSON rows on both engines.
"""

import dataclasses
import itertools
import json
import math

import pytest

from repro.errors import FaultPlanError
from repro.fault_plan import FaultPlan, parse_fault_plan
from repro.sweep import iter_sweep, smoke_grid

TIMES = [0.0, 1e-5, 0.02, 0.1234567891, 0.1234571, 1.0, 3.0,
         1234567.5, 1234567.9, 2e16, math.inf]


def lattice_plans():
    finite = [t for t in TIMES if t < math.inf]
    for t, node in itertools.product(finite, (0, 1)):
        yield FaultPlan(crashes=((node, t),))
    for t0, t1 in itertools.combinations(TIMES, 2):
        yield FaultPlan(link_drops=((0, 1, t0, t1),))
    for rate in (t for t in TIMES if 0 < t < 1):
        yield FaultPlan(loss_rate=rate)
    for t0, t1 in itertools.combinations(TIMES, 2):
        if t0 < 1:
            yield FaultPlan(
                crashes=((1, t0), (2, t0)),
                link_drops=((0, 1, t0, t1), (1, 2, 0.0, t1)),
                loss_rate=t0,
            )


def test_labels_round_trip_and_identify_plans_over_the_lattice():
    plans = list(lattice_plans())
    assert len(set(plans)) == len(plans) > 100
    labels = [plan.label() for plan in plans]
    for plan, label in zip(plans, labels):
        assert parse_fault_plan(label) == plan, label
    assert len(set(labels)) == len(labels)


def test_labels_that_already_round_tripped_keep_their_text():
    # Cell ids, spec hashes and expected.json digests embed these.
    assert parse_fault_plan("crash@3.0:1,loss:0.02").label() == "crash@3:1,loss:0.02"
    assert parse_fault_plan("link@2-0:1.0-4.5").label() == "link@0-2:1-4.5"
    assert parse_fault_plan("crash@250000:1").label() == "crash@250000:1"


def test_equal_plans_share_one_label():
    assert parse_fault_plan("crash@-0.0:1") == parse_fault_plan("crash@0:1")
    assert parse_fault_plan("crash@-0.0:1").label() == "crash@0:1"
    assert parse_fault_plan("link@0-1:-0.0-2").label() == "link@0-1:0-2"


@pytest.mark.parametrize("when", ["nan", "inf", "-inf", "-1"])
def test_crash_times_must_be_finite_at_spec_build_time(when):
    with pytest.raises(FaultPlanError, match="crash time must be finite"):
        dataclasses.replace(smoke_grid(), faults=(f"crash@{when}:1",))


def test_an_open_ended_link_window_stays_legal():
    plan = parse_fault_plan("link@0-1:2-inf")
    assert plan.link_drops == ((0, 1, 2.0, math.inf),)


# ----------------------------------------------------------------------
# the enumerated term fuzz
# ----------------------------------------------------------------------
FLOATS = ["-1", "nan", "inf", "-inf", "", "x", "1e-5", "3"]
NODES = ["99", "-1", "", "1.5", "1"]
EDGES = ["99-0", "-1-0", "-1", "0-", "0-0", "1-2", "1-0", "0-1"]


def hostile_terms():
    for when, node in itertools.product(FLOATS, NODES):
        yield f"crash@{when}:{node}"
    for edge, t0, t1 in itertools.product(EDGES, FLOATS, ["", "inf", "nan", "4"]):
        yield f"link@{edge}:{t0}-{t1}"
    for rate in [*FLOATS, "0.3", "1.0", "0.999999999"]:
        yield f"loss:{rate}"
    yield from [
        # duplicates
        "crash@3:1,crash@3:1",
        "link@0-1:1-3,link@1-0:1-3",
        "loss:0.1,loss:0.1",
        # overlaps: windows on one edge, crashes of one node, everything at once
        "link@0-1:1-3,link@0-1:2-5",
        "link@0-1:1-inf,link@0-1:0-2",
        "crash@3:1,crash@4:1",
        "crash@3:1,crash@3:2",
        "crash@0:0,link@0-1:0-inf,loss:0.9",
        # empty and stray fields
        "crash@", "crash@3", "crash@:", "link@", "link@0-1", "link@0-1:",
        "loss", "loss:", ",", ",,crash@3:1,", "crash@3:1:2", "link@0-1:1-2-3",
    ]


def rows_under(plan: str, engine: str):
    spec = dataclasses.replace(
        smoke_grid(seeds=(0,), engine=engine), faults=(plan,)
    )
    return list(iter_sweep(spec))


def test_every_hostile_term_is_a_plan_error_or_runs_alike_on_both_engines():
    ran = refused = 0
    for plan in hostile_terms():
        try:
            fast, message = rows_under(plan, "fast"), rows_under(plan, "message")
        except FaultPlanError:
            refused += 1
            continue
        ran += 1
        assert fast == message, plan
        json.dumps(fast, allow_nan=False)  # NaN / Infinity are not JSON
    # Neither side of the property is vacuous.
    assert ran > 20 and refused > 200, (ran, refused)
