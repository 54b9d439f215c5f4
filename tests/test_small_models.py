"""Tier-1 slice of the small-model oracle (``tests/small_models.py``).

One test per axis of ``SLICE`` (n <= 4, the concurrent axis to n = 5):
every instance of the axis runs through both engines and every check of
``small_models.check``.  The axis sizes are pinned, so an enumerator
that silently shrinks fails here too.  Run with ``-s`` to see the counts; the full corpus is
``PYTHONPATH=src python tests/small_models.py``.
"""

import pytest

from small_models import AXES, FULL, SLICE, Instance, SmallModelFailure, check, run_axis

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
