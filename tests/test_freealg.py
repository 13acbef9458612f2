"""Noncommutative rewriting: normal forms, critical pairs, tensor layer."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge.cli import main
from jforge.errors import NonTerminating, OrientationFailure
from jforge.freealg import (
    RewriteRule,
    RewriteSystem,
    _ambiguities,
    nc_add,
    nc_evaluate,
    nc_gen,
    nc_is_zero,
    nc_mul,
    nc_one,
    nc_scale,
    nc_str,
    nc_sub,
    nc_word,
    t_mul,
    t_simple,
    tensor_normal_form,
    word_touches,
)
from jforge.grammar import parse
from jforge.hopf import LAYOUT_Q, coproduct_poly
from jforge.laurent import L_ONE, L_ZERO, Substitution
from jforge.rmat import four_param_deformed_r3
from jforge.rtt import LAYOUT_3, DerivedAlgebra, inverse_record


def weyl_like() -> RewriteSystem:
    # y x -> x y + 1: one descending pair with an inhomogeneous tail
    rs = RewriteSystem(("x", "y"))
    rs.add_rule(RewriteRule(("y", "x"), nc_add(nc_word(("x", "y")), nc_one()),
                            "weyl"))
    return rs


def plane_like() -> RewriteSystem:
    # y x -> x y + m x^2, the quadratic-tail pattern used by the main table
    rs = RewriteSystem(("x", "y"))
    rs.add_rule(RewriteRule(
        ("y", "x"),
        nc_add(nc_word(("x", "y")), nc_word(("x", "x"), parse("m"))),
        "plane"))
    return rs


def test_rules_must_be_oriented():
    rs = RewriteSystem(("x", "y"))
    with pytest.raises(OrientationFailure):
        rs.add_rule(RewriteRule(("x", "y"), nc_word(("y", "x")), "backwards"))


def test_rules_reject_unknown_letters():
    rs = RewriteSystem(("x", "y"))
    with pytest.raises(OrientationFailure):
        rs.add_rule(RewriteRule(("y", "z"), nc_word(("x",)), "stray"))


def test_normal_form_idempotent_and_linear():
    rs = plane_like()
    p = nc_mul(nc_word(("y", "y")), nc_word(("x", "x")))
    q = nc_word(("y", "x", "y"))
    nf = rs.normal_form(p)
    assert rs.normal_form(nf) == nf
    left = rs.normal_form(nc_add(nc_scale(p, parse("3")), q))
    right = nc_add(nc_scale(rs.normal_form(p), parse("3")), rs.normal_form(q))
    assert left == right


def test_difference_to_normal_form_is_ideal_member():
    rs = plane_like()
    p = nc_word(("y", "x", "y", "x"))
    assert rs.reduces_to_zero(nc_sub(p, rs.normal_form(p)))


@given(st.lists(st.sampled_from(["x", "y"]), min_size=0, max_size=6))
@settings(max_examples=80, deadline=None)
def test_normal_words_are_sorted(word):
    rs = weyl_like()
    nf = rs.normal_form(nc_word(tuple(word)))
    for w in nf:
        assert list(w) == sorted(w), w


def test_reduction_order_does_not_matter():
    rs = plane_like()
    rule = rs.rules[("y", "x")]
    rng = random.Random(11)
    for _ in range(40):
        word = tuple(rng.choice("xy") for _ in range(rng.randint(2, 5)))
        direct = rs.normal_form(nc_word(word))
        # pre-fire the rule at every matching inner position, then finish
        for pos in range(len(word) - 1):
            if word[pos:pos + 2] == ("y", "x"):
                partial = rs.apply_at(word, pos, rule)
                assert rs.normal_form(partial) == direct


def test_confluence_report_counts_candidates():
    # three pairwise-commuting letters: the z y x overlap is the one candidate
    rs = RewriteSystem(("x", "y", "z"))
    rs.add_rule(RewriteRule(("y", "x"), nc_word(("x", "y")), "t1"))
    rs.add_rule(RewriteRule(("z", "x"), nc_word(("x", "z")), "t2"))
    rs.add_rule(RewriteRule(("z", "y"), nc_word(("y", "z")), "t3"))
    report = rs.confluence_report(max_degree=3)
    assert report.passed
    details = report.checks[0].details
    assert details["candidates"] == 1
    assert details["unresolved"] == []


def test_non_confluent_system_is_detected():
    # z y x resolves two ways that disagree: x*y*y via the first rule pair,
    # x*x*y via the second
    rs = RewriteSystem(("x", "y", "z"))
    rs.add_rule(RewriteRule(("y", "x"), nc_word(("x", "y")), "t1"))
    rs.add_rule(RewriteRule(("z", "x"), nc_word(("x", "x")), "t2"))
    rs.add_rule(RewriteRule(("z", "y"), nc_word(("y", "y")), "t3"))
    report = rs.confluence_report(max_degree=3)
    assert not report.passed
    assert report.checks[0].details["unresolved"]


def commuting_xyz() -> RewriteSystem:
    rs = RewriteSystem(("x", "y", "z", "w"))
    rs.add_rule(RewriteRule(("y", "x"), nc_word(("x", "y")), "t1"))
    rs.add_rule(RewriteRule(("z", "x"), nc_word(("x", "z")), "t2"))
    rs.add_rule(RewriteRule(("z", "y"), nc_word(("y", "z")), "t3"))
    return rs


@pytest.fixture
def nf_calls(monkeypatch):
    """Counts RewriteSystem.normal_form calls made while the test runs."""
    calls = [0]
    original = RewriteSystem.normal_form

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RewriteSystem, "normal_form", counting)
    return calls


def test_repeated_confluence_report_is_memoized(nf_calls):
    rs = commuting_xyz()
    first = rs.confluence_report(max_degree=3)
    assert nf_calls[0] == 2  # one critical pair, both sides normalized
    first.checks[0].details["unresolved"].append("mutated by the caller")
    first.add("extra", False)
    second = rs.confluence_report(max_degree=3)
    assert nf_calls[0] == 2
    assert second.passed and len(second.checks) == 1
    assert second.checks[0].details == {"candidates": 1, "max_degree": 3, "unresolved": []}


def test_add_rule_clears_the_confluence_memo(nf_calls):
    rs = commuting_xyz()
    before = rs.confluence_report(max_degree=3)
    assert before.passed
    # w z -> x x breaks the overlaps w z x and w z y: x x x against the
    # stuck w x z, and x x y against the stuck w y z
    rs.add_rule(RewriteRule(("w", "z"), nc_word(("x", "x")), "t4"))
    after = rs.confluence_report(max_degree=3)
    assert not after.passed
    assert after.checks[0].details["candidates"] > before.checks[0].details["candidates"]
    unresolved = [u["word"] for u in after.checks[0].details["unresolved"]]
    assert sorted(unresolved) == [["w", "z", "x"], ["w", "z", "y"]]


def test_confluence_memo_is_kept_per_degree(nf_calls):
    # x x -> x overlaps itself at degree 3, and y y x at degree 4
    rs = RewriteSystem(("x", "y"))
    rs.add_rule(RewriteRule(("y", "y", "x"), nc_word(("x", "y", "y")), "r1"))
    rs.add_rule(RewriteRule(("x", "x"), nc_word(("x",)), "r2"))
    three = rs.confluence_report(max_degree=3)
    after_three = nf_calls[0]
    four = rs.confluence_report(max_degree=4)
    assert nf_calls[0] > after_three
    after_four = nf_calls[0]
    assert rs.confluence_report(max_degree=3).checks[0].details == three.checks[0].details
    assert rs.confluence_report(max_degree=4).checks[0].details == four.checks[0].details
    assert nf_calls[0] == after_four
    assert three.checks[0].details["candidates"] == 1
    assert four.checks[0].details["candidates"] == 2
    assert three.passed and four.passed


def _rule(lhs, rhs, tag):
    return RewriteRule(tuple(lhs), nc_word(tuple(rhs)), tag)


def _xyzw(rules) -> RewriteSystem:
    rs = RewriteSystem(("x", "y", "z", "w"))
    for rule in rules:
        rs.add_rule(rule)
    return rs


# (old rules, new rules, full check, new-pairs check) on x < y < z < w
NEW_PAIRS_CASES = {
    # z y x: x y y by z y first, x x y by the new y x first; the new rule
    # is only the second rule of that pair
    "new-rule-breaks": ([_rule("zx", "xx", "t2"), _rule("zy", "yy", "t3")],
                        [_rule("yx", "xy", "t1")], False, False),
    "new-rule-keeps": ([_rule("zx", "xz", "t2"), _rule("zy", "yz", "t3")],
                       [_rule("yx", "xy", "t1")], True, True),
    # z y x fails before w comes in; w's own pairs all resolve
    "already-broken": ([_rule("yx", "xy", "t1"), _rule("zx", "xx", "t2"),
                        _rule("zy", "yy", "t3")],
                       [_rule("wx", "xw", "t4"), _rule("wy", "yw", "t5"),
                        _rule("wz", "zw", "t6")], False, True),
}


@pytest.mark.parametrize("case", sorted(NEW_PAIRS_CASES))
def test_new_pairs_check_against_the_full_check(case):
    old, new, full, incremental = NEW_PAIRS_CASES[case]
    rs = _xyzw(old + new)
    assert (not rs.new_pairs_unresolved(new, max_degree=3)) is incremental
    assert rs.confluence_report(max_degree=3).passed is full


@pytest.mark.parametrize("case", sorted(NEW_PAIRS_CASES))
def test_report_after_new_pairs_check_matches_a_fresh_system(nf_calls, case):
    old, new, _full, _incremental = NEW_PAIRS_CASES[case]
    rs = _xyzw(old + new)
    rs.new_pairs_unresolved(new, max_degree=3)
    report = rs.confluence_report(max_degree=3)
    # the full report reuses the new pairs' verdicts: each pair once
    assert nf_calls[0] == 2 * report.checks[0].details["candidates"]
    assert report.to_dict() == _xyzw(old + new).confluence_report(max_degree=3).to_dict()


def test_add_rule_clears_the_pair_verdicts():
    old, new, _full, _incremental = NEW_PAIRS_CASES["new-rule-breaks"]
    rs = _xyzw(old + new)
    assert rs.new_pairs_unresolved(new, max_degree=3)
    # x y y -> x x y joins the two sides of z y x
    joining = _rule("xyy", "xxy", "t7")
    rs.add_rule(joining)
    assert not rs.new_pairs_unresolved([joining], max_degree=3)
    report = rs.confluence_report(max_degree=3)
    assert report.passed
    assert report.to_dict() == _xyzw(old + new + [joining]).confluence_report(
        max_degree=3).to_dict()


def _every_ordered_pair(system, involving=None):
    """The critical pairs by brute force: the ambiguities of every ordered
    pair of rules in rule_list() order; with involving, a set of lhs words,
    only the pairs with one of them."""
    rules = system.rule_list()
    return [pair for r1 in rules for r2 in rules
            if involving is None or {r1.lhs, r2.lhs} & involving
            for pair in _ambiguities(r1, r2)]


def _pair_key(word, p1, r1, p2, r2):
    return word, p1, r1.lhs, p2, r2.lhs


@st.composite
def lhs_systems(draw):
    """Rules with lhs words of one to three letters over x < y < z, a
    subset of them as the new rules, and a degree bound."""
    words = draw(st.lists(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3)
                          .map(tuple), min_size=1, max_size=8, unique=True))
    new = draw(st.sets(st.sampled_from(words)))
    return words, new, draw(st.sampled_from([None, 3, 4]))


@given(lhs_systems())
@settings(max_examples=150, deadline=None)
def test_pair_enumeration_matches_every_ordered_pair(case):
    words, new, max_degree = case
    rs = RewriteSystem(("x", "y", "z"))
    for w in words:
        rs.add_rule(RewriteRule(w, {}, "".join(w)))
    assert list(rs.critical_pairs()) == _every_ordered_pair(rs)
    # every pair reported as unresolved, so the list shows which were tried
    rs._verdict = _pair_key
    want = [_pair_key(*pair) for pair in _every_ordered_pair(rs, new)
            if max_degree is None or len(pair[0]) <= max_degree]
    new_rules = [r for r in rs.rule_list() if r.lhs in new]
    assert rs.new_pairs_unresolved(new_rules, max_degree) == want


def test_derived_systems_pair_every_rule_as_before(alg, quotient):
    graded_rq3 = DerivedAlgebra(four_param_deformed_r3()).system
    for system in (alg.system, quotient.system, graded_rq3):
        assert list(system.critical_pairs()) == _every_ordered_pair(system)


def test_step_budget_is_enforced(monkeypatch):
    monkeypatch.setenv("JFORGE_MAX_STEPS", "3")
    rs = weyl_like()
    deep = nc_word(tuple("yx" * 12))
    with pytest.raises(NonTerminating, match="exceeded 3 steps"):
        rs.normal_form(deep)


def under_bound(system: RewriteSystem, steps: int, work):
    """work() with system's step bound set to steps; whether it finished."""
    system.max_steps = steps
    try:
        work()
    except NonTerminating as exc:
        assert str(exc) == f"rewriting exceeded {steps} steps"
        return False
    return True


@pytest.mark.parametrize("before", [None, "confluence_report"])
def test_the_e_roundtrips_cost_the_same_after_any_earlier_work(before):
    # a cached word is charged the steps its rewriting took, so a normal
    # form costs its rewrite tree whatever the cache already holds
    alg = DerivedAlgebra()
    if before:
        alg.system.confluence_report(max_degree=3)
    e = alg.derivations[-1]
    assert e["inverse"] == "e"
    record = lambda: inverse_record(e, alg.system)  # noqa: E731
    assert not under_bound(alg.system, 405, record)
    assert under_bound(alg.system, 406, record)
    assert not under_bound(alg.system, 405, record)


def test_a_linear_chain_is_charged_its_length_from_the_cache_too():
    # x^600*f moves f left one letter per rewrite: 600 steps, also when
    # every word of the chain is read from the cache
    system = DerivedAlgebra(extend=False).system
    word = nc_word(("x",) * 600 + ("f",))
    normal_form = lambda: system.normal_form(word)  # noqa: E731
    assert not under_bound(system, 599, normal_form)
    assert under_bound(system, 600, normal_form)
    assert not under_bound(system, 599, normal_form)
    assert under_bound(system, 600, normal_form)


@pytest.mark.parametrize("degree", ["4", "5"])
def test_deeper_confluence_checks_finish_under_the_default_bound(monkeypatch, degree):
    monkeypatch.delenv("JFORGE_MAX_STEPS", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["relations", "--max-degree", degree, "--format", "json"]) == 1
    report = json.loads(out.getvalue())
    # beyond degree 3 localized words are left stuck by design
    assert [c["name"] for c in report["checks"] if not c["pass"]] == [
        "ref:f-y", "critical-pairs-resolve"]


def test_quotient_drops_rules_and_erases_tails():
    rs = RewriteSystem(("x", "y", "z"))
    rs.add_rule(RewriteRule(("y", "x"), nc_word(("x", "y")), "kept-away"))
    rs.add_rule(RewriteRule(("z", "x"),
                            nc_add(nc_word(("x", "z")), nc_word(("y", "y"))),
                            "tail-trimmed"))
    q = rs.quotient(("y",))
    assert q.generators == ("x", "z")
    assert len(q.rule_list()) == 1
    assert q.normal_form(nc_word(("z", "x"))) == nc_word(("x", "z"))


def test_word_touches():
    assert word_touches(("a", "theta", "b"), ("theta", "phi"))
    assert not word_touches(("a", "b"), ("theta", "phi"))


def test_parameter_substitution_in_coefficients():
    p = nc_word(("x", "y"), parse("m - n"))
    assert nc_is_zero(nc_evaluate(p, Substitution({"m": parse("n")})))


def test_tensor_product_is_componentwise():
    x, y = nc_gen("x"), nc_gen("y")
    prod = t_mul(t_simple(x, y), t_simple(y, x))
    assert prod == t_simple(nc_mul(x, y), nc_mul(y, x))
    assert nc_is_zero(nc_add(prod, nc_scale(prod, parse("-1"))))


def test_tensor_normal_form_reduces_each_leg():
    rs = plane_like()
    yx = nc_word(("y", "x"))
    nf = tensor_normal_form(t_simple(yx, yx), rs)
    assert nf == t_simple(rs.normal_form(yx), rs.normal_form(yx))


def _naive_tensor_normal_form(elem, system):
    """Each term's legs reduced on their own, every product taken."""
    out = {}
    for (wl, wr), c in elem.items():
        left = system.normal_form({wl: L_ONE})
        right = system.normal_form({wr: L_ONE})
        for ll, cl in left.items():
            for rr, cr in right.items():
                value = out.pop((ll, rr), L_ZERO) + c * cl * cr
                if not value.is_zero():
                    out[(ll, rr)] = value
    return out


def _grid_rules(system, layout):
    letters = {g for row in layout for g in row if g is not None}
    for rule in system.rule_list():
        support = set(rule.lhs).union(*map(set, rule.rhs))
        if support <= letters:
            yield rule


def test_tensor_normal_form_matches_naive_expansion(alg, quotient):
    # coproduct images of both sides of every grid rule, in the full
    # system and in the quotient; the residuals vanish, the sides do not
    checked = 0
    for system, layout in ((alg.system, LAYOUT_3), (quotient.system, LAYOUT_Q)):
        for rule in _grid_rules(system, layout):
            for side in (nc_word(rule.lhs), rule.rhs,
                         nc_sub(nc_word(rule.lhs), rule.rhs)):
                image = coproduct_poly(side, layout)
                assert tensor_normal_form(image, system) == \
                    _naive_tensor_normal_form(image, system)
                checked += 1
    assert checked == 3 * (36 + 21)


def test_nc_str_orders_terms_deterministically():
    p = nc_add(nc_word(("y", "y")), nc_word(("x",), parse("2")))
    assert nc_str(p, ("x", "y")) == "y*y + 2*x"
