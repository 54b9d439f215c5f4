"""Tier-1 guard for the mutation matrix (``tests/mutants.py``).

The matrix itself runs for tens of minutes; this checks only that every
mutant's edit still matches exactly once in the source it edits, so a
``src/`` change that orphans a mutant fails here at once.
"""

import pytest

import mutants


def test_every_mutant_edit_matches_exactly_once():
    mutants._check_edits(list(mutants.MUTANTS))


def test_an_orphaned_edit_is_named(monkeypatch):
    orphan = mutants.Mutant(mutants.ARROW, "no such text", "")
    monkeypatch.setitem(mutants.MUTANTS, "orphan", orphan)
    with pytest.raises(SystemExit, match="orphan: the edit matches 0 times"):
        mutants._check_edits(["orphan"])
