"""Coalgebra structure, Hopf ideal, antipode, determinant, coaction."""

from fractions import Fraction

import pytest

from jforge.freealg import (
    RewriteRule,
    RewriteSystem,
    nc_add,
    nc_gen,
    nc_mul,
    nc_one,
    nc_scale,
    nc_sub,
    nc_word,
    t_simple,
    t_str,
    tensor_normal_form,
)
from jforge.grammar import parse
from jforge.hopf import (
    LAYOUT_Q,
    _rule_images,
    antipode,
    check_antipode_axiom,
    check_bialgebra,
    coaction_covariance,
    coproduct,
    coproduct_poly,
    counit,
    counit_poly,
    delta_centrality,
    hopf_ideal_check,
    qdet_checks,
)
from jforge.laurent import Substitution
from jforge.rtt import LAYOUT_3
from jforge.specialize import SpecializedAlgebra, SpecializedSystem, derive, read


def test_coproduct_is_matrix_comultiplication():
    expected = nc_add(
        nc_add(t_simple(nc_gen("x"), nc_gen("f")),
               t_simple(nc_gen("a"), nc_gen("x"))),
        t_simple(nc_gen("b"), nc_gen("y")))
    assert coproduct("x", LAYOUT_Q) == expected
    assert coproduct("f", LAYOUT_Q) == t_simple(nc_gen("f"), nc_gen("f"))
    # the full grid routes the row vector into the first row
    full = coproduct("theta", LAYOUT_3)
    assert t_simple(nc_gen("f"), nc_gen("theta")) != full
    assert (tuple(), ("f",)) not in full


def test_counit_is_the_grid_diagonal():
    for g in ("f", "a", "d", "f_inv", "delta_inv", "xi"):
        assert counit(g) == parse("1")
    for g in ("x", "y", "b", "c", "theta", "phi"):
        assert counit(g) == parse("0")
    assert counit_poly(nc_word_pair("a", "d")) == parse("1")
    assert counit_poly(nc_word_pair("a", "b")) == parse("0")
    assert counit_poly(nc_one()) == parse("1")


def nc_word_pair(u, v):
    return nc_mul(nc_gen(u), nc_gen(v))


def test_bialgebra_axioms_full(alg):
    report = check_bialgebra(alg.system)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "coproduct-is-algebra-map",
        "counit-is-algebra-map",
        "coassociativity",
        "counit-axioms",
    ]


def test_bialgebra_axioms_quotient(quotient):
    report = check_bialgebra(quotient.system, LAYOUT_Q)
    assert report.passed
    assert len(report.checks) == 4


def _scaled(system, tag, factor):
    """A copy of system with the rhs of the rule tagged tag scaled by factor."""
    out = RewriteSystem(system.generators)
    for rule in system.rule_list():
        rhs = nc_scale(rule.rhs, factor) if rule.tag == tag else rule.rhs
        out.add_rule(RewriteRule(rule.lhs, rhs, rule.tag))
    return out


def test_per_word_images_equal_the_direct_tensor_normal_form(alg, quotient):
    point = Substitution({"m": Fraction(3, 2), "n": Fraction(-2, 3),
                          "k": Fraction(5), "p": Fraction(7, 4)})
    cases = [(alg.system, LAYOUT_3), (quotient.system, LAYOUT_Q),
             (SpecializedSystem(alg.system, point), LAYOUT_3),
             # a broken rule leaves nonzero images to compare
             (_scaled(alg.system, "table:c-a", parse("2")), LAYOUT_3)]
    nonzero = 0
    for system, layout in cases:
        images = list(_rule_images(system, layout))
        assert len(images) == (21 if layout is LAYOUT_Q else 36)
        for rule, residual, image in images:
            assert residual == nc_sub(nc_word(rule.lhs), rule.rhs)
            assert image == tensor_normal_form(coproduct_poly(residual, layout), system)
            nonzero += bool(image)
    assert nonzero > 5


def test_a_scaled_table_rule_fails_with_the_direct_image(alg):
    system = _scaled(alg.system, "table:c-a", parse("2"))
    check = check_bialgebra(system).checks[0]
    assert check.name == "coproduct-is-algebra-map"
    assert not check.passed
    letters = {g for row in LAYOUT_3 for g in row}
    want = []
    for rule in system.rule_list():
        if set(rule.lhs).union(*map(set, rule.rhs)) <= letters:
            residual = nc_sub(nc_word(rule.lhs), rule.rhs)
            image = tensor_normal_form(coproduct_poly(residual), system)
            if image:
                want.append({"rule": rule.tag, "image": t_str(image)})
    assert check.details["failures"] == want[:5]
    assert any(f["rule"] == "table:c-a" for f in want)


def test_row_vector_spans_a_hopf_ideal(alg):
    report = hopf_ideal_check(alg)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "two-sided-ideal", "co-ideal", "antipode-stability",
    ]


def test_antipode_of_scale_is_its_inverse(quotient):
    assert antipode("f", quotient) == nc_gen("f_inv")
    prod = nc_mul(antipode("f", quotient), nc_gen("f"))
    assert quotient.system.reduces_to_zero(nc_sub(prod, nc_one()))


POINT = {"m": Fraction(3, 2), "n": Fraction(-2, 3), "k": Fraction(5), "p": Fraction(7, 4)}


def _inverse_grid(alg, quotient: bool) -> dict:
    """S of each grid generator written out from the block inverse M, read
    at alg's point: s = f_inv on the quotient and e on the full algebra,
    col_i = M[i][0]*x + M[i][1]*y and row_j = theta*M[0][j] + phi*M[1][j]."""
    at = alg.system.evaluate
    m = [[at(alg.block_inv[i][j]) for j in (0, 1)] for i in (0, 1)]
    x, y, theta, phi = (nc_gen(g) for g in ("x", "y", "theta", "phi"))
    col = [nc_add(nc_mul(m[i][0], x), nc_mul(m[i][1], y)) for i in (0, 1)]
    if quotient:
        s = nc_gen("f_inv")
        return {"f": s,
                "x": nc_scale(nc_mul(col[0], s), -1),
                "y": nc_scale(nc_mul(col[1], s), -1),
                "a": m[0][0], "b": m[0][1], "c": m[1][0], "d": m[1][1]}
    s = nc_gen("e")
    row = [nc_add(nc_mul(theta, m[0][j]), nc_mul(phi, m[1][j])) for j in (0, 1)]
    return {"f": s,
            "x": nc_scale(nc_mul(col[0], s), -1),
            "y": nc_scale(nc_mul(col[1], s), -1),
            "theta": nc_scale(nc_mul(s, row[0]), -1),
            "phi": nc_scale(nc_mul(s, row[1]), -1),
            "a": nc_add(m[0][0], nc_mul(nc_mul(col[0], s), row[0])),
            "b": nc_add(m[0][1], nc_mul(nc_mul(col[0], s), row[1])),
            "c": nc_add(m[1][0], nc_mul(nc_mul(col[1], s), row[0])),
            "d": nc_add(m[1][1], nc_mul(nc_mul(col[1], s), row[1]))}


def test_antipode_is_the_inverse_grid_formula(alg, quotient):
    point = read(alg, POINT)
    assert isinstance(point, SpecializedAlgebra)
    for a, is_quotient in ((alg, False), (quotient, True),
                           (point, False), (point.quotient(), True)):
        want = _inverse_grid(a, is_quotient)
        assert len(want) == (7 if is_quotient else 9)
        for g, image in want.items():
            assert a.system.evaluate(antipode(g, a)) == image, (g, is_quotient)
        if is_quotient:
            for g in ("theta", "phi"):
                with pytest.raises(ValueError, match=f"'{g}' is not a quotient grid generator"):
                    antipode(g, a)


def test_antipode_axiom_in_quotient(quotient):
    report = check_antipode_axiom(quotient)
    assert report.passed
    names = [c.name for c in report.checks]
    assert len(names) == 10
    assert names[-1] == "counit-of-antipode"
    positions = {f"antipode:{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)}
    assert set(names[:-1]) == positions


def test_antipode_axiom_full_algebra_stalls_inside_ideal(alg):
    # localized words of the row-vector column stick in the against
    # direction; the quotient erases exactly those, so only the last grid
    # row can fail here
    report = check_antipode_axiom(alg)
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"antipode:31", "antipode:32", "antipode:33"}


def test_total_determinant_checks(quotient):
    report = qdet_checks(quotient)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "determinant-group-like",
        "block-determinant-group-like",
        "counit-of-determinant",
        "scale-noncentral-witness",
        "determinant-inverse",
    ]


def test_block_determinant_centrality_profile(alg):
    report = delta_centrality(alg)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["commutator:a", "commutator:b", "commutator:c",
                     "commutator:d", "central-at-m-equals-n"]


def test_coaction_preserves_plane_relation(quotient):
    report = coaction_covariance(quotient.system)
    assert report.passed
    assert report.checks[0].details["residual_terms"] == 0


def test_coaction_fails_without_braiding(quotient):
    report = coaction_covariance(quotient.system, braiding=False)
    assert not report.passed
    details = report.checks[0].details
    assert details["residual_terms"] == 2
    assert "2*m" in details["residual"]


def test_coaction_needs_no_braiding_on_undeformed_plane():
    classical_plane = derive(bindings={"m": parse("0")})
    quotient = classical_plane.quotient()
    assert coaction_covariance(quotient.system).passed
    assert coaction_covariance(quotient.system, braiding=False).passed
