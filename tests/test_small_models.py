"""Tier-1 slice of the small-model oracle (``tests/small_models.py``).

One test per axis of ``SLICE`` (n <= 4, the concurrent axis to n = 5):
every instance of the axis runs through both engines and every check of
``small_models.check``.  The axis sizes are pinned, so an enumerator
that silently shrinks fails here too.  Run with ``-s`` to see the counts; the full corpus is
``PYTHONPATH=src python tests/small_models.py``.
"""

import dataclasses

import pytest

from repro.core.fast_arrow import run_arrow_fast
from repro.core.fast_closed_loop import closed_loop_centralized_fast
from repro.core.requests import RequestSchedule
from small_models import (
    AXES,
    DELAYS,
    FULL,
    SLICE,
    Instance,
    SmallModelFailure,
    _busy_queues,
    _centre_serves_one_at_a_time,
    _initiations_fire_first,
    _topology,
    check,
    run_axis,
)

#: Instances per slice axis.
SLICE_COUNTS = {
    "open-unit": 3_640,
    "open-weight": 352,
    "open-directed": 622,
    "open-async": 622,
    "faults": 3_536,
    "faults-async": 728,
    "concurrent": 726,
    "closed-arrow": 756,
    "closed-central": 540,
    "dir-arrow": 1_134,
    "dir-home": 810,
    "open-central": 2_406,
    "open-adaptive": 2_406,
}


@pytest.mark.parametrize("name", list(SLICE))
def test_slice_axis(name):
    count, failures, _ = run_axis(name, SLICE[name])
    print(f"{name}: {count:,} instances, {len(failures)} failed")
    assert not failures, f"{len(failures)} of {count} failed; the first:\n{failures[0]}"
    assert count == SLICE_COUNTS[name]


def test_full_corpus_contains_the_slice():
    assert list(SLICE) == list(FULL) == list(AXES)
    for name, axis in SLICE.items():
        assert FULL[name].contains(axis), name


def test_a_failure_ends_with_the_literal_that_rebuilds_it():
    # A request on a node the tree does not have fails on both engines.
    bad = Instance(((1, 0),), 0, requests=((2, 0.0),), service=0.5)
    with pytest.raises(SmallModelFailure) as info:
        check(bad)
    literal = str(info.value).splitlines()[-1]
    assert literal == f"  rebuild: check({bad!r})"
    assert eval(literal.split("check(", 1)[1][:-1]) == bad


#: Every node of a 5-node caterpillar requesting at t = 0 and t = 1.
BUSY = Instance(
    ((0, 1), (1, 2), (0, 3), (1, 4)), 0,
    tuple((v, t) for t in (0.0, 1.0) for v in range(5)), service=0.5,
)


@pytest.mark.parametrize("delay, weights", [
    ("unit", ()), ("weight", (1.0, 2.0, 2.0, 1.0)), ("directed", ()),
])
def test_the_busy_queue_replay_catches_a_deliver_off_its_slot(delay, weights):
    inst = dataclasses.replace(BUSY, delay=delay, weights=weights)
    graph, tree = _topology(inst.edges, inst.weights, inst.root, False)
    events = []
    run_arrow_fast(graph, tree, RequestSchedule(inst.requests), latency=DELAYS[delay],
                   service_time=inst.service, on_event=events.extend)
    _busy_queues(tree, DELAYS[delay], inst.service, events)
    k = next(i for i, ev in enumerate(events) if ev[0] == "deliver")
    events[k] = (*events[k][:4], events[k][4] + inst.service)
    with pytest.raises(AssertionError, match="its FIFO slot ends at"):
        _busy_queues(tree, DELAYS[delay], inst.service, events)


def test_the_centre_spacing_catches_two_creqs_served_at_once():
    inst = Instance(((0, 1), (0, 2), (0, 3)), 0, protocol="centralized", rpp=2,
                    service=0.5, center=0)
    graph, _ = _topology(inst.edges, inst.weights, inst.root, True)
    result = closed_loop_centralized_fast(graph, 0, requests_per_proc=2, service_time=0.5)
    _centre_serves_one_at_a_time(result, inst, graph)
    first = [rid for rid, p in enumerate(result.owners) if p != 0][:2]
    result.ack_times[first[1]] = result.ack_times[first[0]]
    with pytest.raises(AssertionError, match="the centre served creqs at"):
        _centre_serves_one_at_a_time(result, inst, graph)


def test_the_init_order_catches_an_initiation_behind_a_deliver():
    # Service 0: the t = 0 sends deliver at t = 1, when the second round inits.
    inst = dataclasses.replace(BUSY, service=0.0)
    graph, tree = _topology(inst.edges, inst.weights, inst.root, False)
    events = []
    run_arrow_fast(graph, tree, RequestSchedule(inst.requests), on_event=events.extend)
    _initiations_fire_first(events)
    k = next(i for i, ev in enumerate(events) if ev[0] == "deliver" and ev[-1] == 1.0)
    j = max(i for i, ev in enumerate(events[:k]) if ev[0] == "init" and ev[-1] == 1.0)
    events.insert(k, events.pop(j))
    with pytest.raises(AssertionError, match="fires after"):
        _initiations_fire_first(events)
