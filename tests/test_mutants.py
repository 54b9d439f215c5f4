"""Tier-1 guard for the mutation matrix (``tests/mutants.py``).

The matrix itself runs for tens of minutes; this checks only that every
mutant's edit still matches exactly once in the source it edits, so a
``src/`` change that orphans a mutant fails here at once, and that every
name the ``slice-props`` column must kill is a mutant.
"""

import pytest

import mutants


def test_every_mutant_edit_matches_exactly_once():
    mutants._check_edits(list(mutants.MUTANTS))


def test_every_mutant_slice_props_must_kill_is_a_mutant():
    assert mutants.SLICE_PROPS_KILLS <= set(mutants.MUTANTS)
    assert not any(mutants.MUTANTS[name].equivalent for name in mutants.SLICE_PROPS_KILLS)


def test_an_orphaned_edit_is_named(monkeypatch):
    orphan = mutants.Mutant(mutants.ARROW, "no such text", "")
    monkeypatch.setitem(mutants.MUTANTS, "orphan", orphan)
    with pytest.raises(SystemExit, match="orphan: the edit matches 0 times"):
        mutants._check_edits(["orphan"])


def test_a_slice_props_kill_that_survives_fails_the_matrix(monkeypatch, capsys):
    def run_mutant(mutant):
        marks = {column: "." if mutant is None or column == "slice-props" else "K"
                 for column in mutants.COLUMNS}
        return {column: (mark, []) for column, mark in marks.items()}

    monkeypatch.setattr(mutants, "run_mutant", run_mutant)
    assert mutants.main(["arrow-init-tie-queue"]) == 1
    assert "arrow-init-tie-queue survives slice-props" in capsys.readouterr().out
