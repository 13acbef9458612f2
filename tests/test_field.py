"""Exact rational-function field: canonical forms, arithmetic, limits."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge import poly as P
from jforge.errors import DivisionByZero, NotExpandable, PoleError
from jforge.field import RF_ONE, RF_ZERO, RatFunc, laurent_expand, limit_at_zero
from jforge.grammar import parse


def test_cancellation_is_structural():
    # (x^2 - 1)/(x - 1) and x + 1 must be the same object-level value
    assert parse("(x^2 - 1)/(x - 1)") == parse("x + 1")
    assert parse("(x*y)/(y*x)") == RF_ONE


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        parse("1/(x - x)")


def test_field_axioms_on_named_elements():
    a, b, c = parse("(p + 1)/q"), parse("m*n - 2"), parse("1/(k + 3)")
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a - a == RF_ZERO
    assert (a / b) * b == a
    assert a * a.inverse() == RF_ONE


@st.composite
def small_ratfunc(draw):
    num = draw(st.integers(min_value=-6, max_value=6))
    den = draw(st.integers(min_value=1, max_value=6))
    var = draw(st.sampled_from(["p", "q", "m"]))
    deg = draw(st.integers(min_value=0, max_value=2))
    shift = draw(st.integers(min_value=0, max_value=3))
    return parse(f"({num}/{den})*{var}^{deg} + {shift}")


@given(small_ratfunc(), small_ratfunc(), small_ratfunc())
@settings(max_examples=60, deadline=None)
def test_ring_laws_hold(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(small_ratfunc())
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(a):
    if not a.is_zero():
        assert (RF_ONE / a) * a == RF_ONE


def test_substitute_then_evaluate():
    f = parse("(r - s)/(1 - q)")
    g = f.substitute({"q": parse("1 - eps"), "r": parse("1 + eps"), "s": parse("1 - eps")})
    assert g == parse("2")
    assert parse("(p + 1)/(p - 1)").evaluate({"p": Fraction(3)}) == Fraction(2)


def test_laurent_expansion_of_simple_pole():
    series = laurent_expand(parse("(1 + eps)/eps"), "eps")
    assert series.min_degree == -1
    assert series.coefficient(-1) == RF_ONE
    assert series.coefficient(0) == RF_ONE
    assert series.pole_order() == 1


def test_laurent_expand_zero_function():
    series = laurent_expand(RF_ZERO, "eps")
    assert series.is_zero()
    assert limit_at_zero(series) == RF_ZERO


def test_limit_finite_and_divergent():
    assert limit_at_zero(parse("(m*eps + 3)/(eps + 1)"), "eps") == parse("3")
    with pytest.raises(PoleError):
        limit_at_zero(parse("m/eps"), "eps")
    with pytest.raises(NotExpandable):
        limit_at_zero(parse("m"))


def test_pole_cancellation_across_sum():
    # the contraction mechanism in miniature: poles cancel, slope survives
    f = parse("eta*(r - s)").substitute(
        {"eta": parse("1/eps"), "r": parse("1 - (m + n)/2*eps"),
         "s": parse("1 + (m - n)/2*eps")})
    assert limit_at_zero(f, "eps") == parse("-m")


# -- differential tests of the canonical form --------------------------------
# The reference is the general canonicalization, applied to every input:
# pgcd cancellation, then pint_normalize of the denominator.

def reference_canonical(num, den, reduced=False):
    if P.pis_zero(num):
        return {}, dict(P.PONE)
    if not reduced:
        g = P.pgcd(num, den)
        num, den = P.pdiv_exact(num, g), P.pdiv_exact(den, g)
    den, scale = P.pint_normalize(den)
    return P.pscale(num, scale), den


coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def monomial(draw, variables=("m", "p", "q"), max_exp=2):
    exps = {v: draw(st.integers(min_value=0, max_value=max_exp)) for v in variables}
    return tuple((v, e) for v, e in exps.items() if e)


@st.composite
def poly(draw, min_terms=0, max_terms=3, **mono):
    out = {}
    for _ in range(draw(st.integers(min_value=min_terms, max_value=max_terms))):
        out = P.padd(out, P.pscale({draw(monomial(**mono)): P.F1}, draw(coeff)))
    return out


one_term = st.builds(lambda m, c: {m: c}, monomial(), coeff.filter(bool))
# several-term denominators stay small: pgcd, a recursive remainder
# sequence, takes tens of seconds on some three-variable inputs of degree 7
several_terms = poly(min_terms=2, variables=("m", "p"), max_exp=1).filter(
    lambda d: len(d) >= 2)
denominator = st.one_of(one_term, several_terms)


def as_pair(f):
    return f.num, f.den


@given(poly(), denominator)
@settings(max_examples=150, deadline=None)
def test_canonical_form_matches_general_reduction(time_limit, num, den):
    with time_limit(10):
        assert as_pair(RatFunc(num, den)) == reference_canonical(num, den)
        if num:
            # the same value with gcd 1 already, as the _reduced flag promises
            g = P.pgcd(num, den)
            num, den = P.pdiv_exact(num, g), P.pdiv_exact(den, g)
            assert as_pair(RatFunc(num, den, _reduced=True)) == reference_canonical(num, den, True)


@st.composite
def ratfunc(draw):
    num = draw(poly(max_terms=2))
    return RatFunc(num, draw(denominator))


units = st.sampled_from([RF_ZERO, RF_ONE, -RF_ONE])


@given(ratfunc(), st.one_of(ratfunc(), units))
@settings(max_examples=120, deadline=None)
def test_products_and_sums_match_general_reduction(time_limit, a, b):
    with time_limit(10):
        for x, y in ((a, b), (b, a)):
            prod = reference_canonical(P.pmul(x.num, y.num), P.pmul(x.den, y.den))
            assert as_pair(x * y) == prod
            total = reference_canonical(P.padd(P.pmul(x.num, y.den), P.pmul(y.num, x.den)),
                                        P.pmul(x.den, y.den))
            assert as_pair(x + y) == total
            assert as_pair(x - y) == as_pair(x + (-y))


def test_unit_products_short_circuit():
    f = parse("(m + 1)/p^2")
    assert f * RF_ONE is f and RF_ONE * f is f
    assert f * -1 == -f and as_pair(-1 * f) == as_pair(-f)
