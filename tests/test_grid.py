"""The fact the grid worker of jforge.cli rests on.

A word on the nine grid letters is rewritten by table rules alone, to words
on them again: every rule whose lhs lies on the grid letters is a table
rule, and every other lhs holds an adjoined inverse.  So its normal form is
the same in the graded table (extend=False) and in the algebra with the
inverses adjoined, and, for the letters of LAYOUT_Q, in the table's
quotient by theta and phi and in QuotientAlgebra.  The tests check it on
words of up to four letters, symbolically, at a rational point off the
locus and at m = 0, which is on it (the algebra is derived there).
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge import cli
from jforge.grammar import parse
from jforge.hopf import LAYOUT_Q
from jforge.laurent import L_ONE
from jforge.rtt import LETTERS, QuotientAlgebra
from jforge.specialize import derive

SETTINGS = {
    "symbolic": {},
    "point": {"m": "3/2", "n": "-2/3", "k": "5", "p": "7/4"},
    "on-locus": {"m": "0"},
}
Q_LETTERS = tuple(g for row in LAYOUT_Q for g in row if g is not None)


@functools.cache
def algebras(setting: str) -> tuple:
    """(graded table, extended algebra, the table's quotient by theta and
    phi, the quotient), each derived on its own."""
    bindings = {k: parse(v) for k, v in SETTINGS[setting].items()}
    graded = derive(bindings=bindings, extend=False)
    full = derive(bindings=bindings)
    return graded, full, graded.system.quotient(QuotientAlgebra.KILLED), full.quotient()


def words(letters):
    return st.lists(st.sampled_from(letters), min_size=1, max_size=4).map(tuple)


@pytest.mark.parametrize("setting", SETTINGS)
@given(word=words(LETTERS))
@settings(max_examples=60, deadline=None)
def test_a_grid_word_has_one_normal_form_in_the_table_and_the_algebra(setting, word):
    graded, full, _, _ = algebras(setting)
    assert graded.system.normal_form({word: L_ONE}) == full.system.normal_form({word: L_ONE})


@pytest.mark.parametrize("setting", SETTINGS)
@given(word=words(Q_LETTERS))
@settings(max_examples=60, deadline=None)
def test_a_quotient_grid_word_has_one_normal_form_in_both_quotients(setting, word):
    _, _, graded_q, q = algebras(setting)
    assert graded_q.normal_form({word: L_ONE}) == q.system.normal_form({word: L_ONE})


@pytest.mark.parametrize("setting", SETTINGS)
def test_only_table_rules_rewrite_grid_words_and_to_grid_words(setting):
    _, full, _, q = algebras(setting)
    for system in (full.system, q.system):
        on_grid = [r for r in system.rule_list() if cli._on_grid(r.lhs)]
        assert len(on_grid) == 36 if system is full.system else 0 < len(on_grid) < 36
        assert all(r.tag.startswith("table:") and all(map(cli._on_grid, r.rhs))
                   for r in on_grid)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("max_degree", [3, 4])
def test_the_critical_pairs_merged_from_both_sides_are_those_of_the_algebra(setting,
                                                                          max_degree):
    graded, full, _, _ = algebras(setting)
    grid = graded.system.unresolved(max_degree, cli._on_grid)
    rest = full.system.unresolved(max_degree, lambda word: not cli._on_grid(word))
    assert grid == full.system.unresolved(max_degree, cli._on_grid)
    merged = full.system.confluence_report(max_degree, [grid, rest])
    fresh = derive(bindings={k: parse(v) for k, v in SETTINGS[setting].items()})
    assert merged.to_dict() == fresh.system.confluence_report(max_degree).to_dict()
