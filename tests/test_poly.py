"""Polynomial core: arithmetic, exact division, gcd, canonical text."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge import poly as P
from jforge.grammar import parse


def build(terms):
    out = P.pzero()
    for coeff, var, exp in terms:
        out = P.padd(out, P.pscale(P.pvar(var, exp), Fraction(coeff)))
    return out


def test_construction_and_degree():
    p = build([(2, "x", 3), (-1, "y", 1)])
    assert P.pvars(p) == {"x", "y"}
    assert not P.pis_const(p)
    assert P.pis_const(P.pconst(5))


def test_exact_division_and_remainder():
    x = P.pvar("x")
    p = P.pmul(P.padd(x, P.pconst(1)), P.psub(x, P.pconst(1)))
    assert P.pdiv_exact(p, P.padd(x, P.pconst(1))) == P.psub(x, P.pconst(1))
    with pytest.raises(ValueError):
        P.pdiv_exact(P.padd(p, P.pconst(1)), P.padd(x, P.pconst(1)))


def test_gcd_of_common_factor():
    x, y = P.pvar("x"), P.pvar("y")
    common = P.padd(x, y)
    a = P.pmul(common, x)
    b = P.pmul(common, y)
    g = P.pgcd(a, b)
    # gcd is defined up to a rational scale; divide it out and check degree 0 remains
    # pdiv_exact raises ValueError unless the division is exact
    for dividend, divisor in ((a, g), (b, g), (g, common)):
        assert P.pmul(P.pdiv_exact(dividend, divisor), divisor) == dividend


small = st.integers(min_value=-4, max_value=4)


@st.composite
def rand_poly(draw):
    out = P.pzero()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        c = draw(small)
        v = draw(st.sampled_from(["x", "y"]))
        e = draw(st.integers(min_value=0, max_value=3))
        out = P.padd(out, P.pscale(P.pvar(v, e), Fraction(c)))
    return out


@given(rand_poly(), rand_poly(), rand_poly())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert P.pmul(a, b) == P.pmul(b, a)
    assert P.padd(a, b) == P.padd(b, a)
    assert P.pmul(a, P.padd(b, c)) == P.padd(P.pmul(a, b), P.pmul(a, c))
    assert P.psub(a, a) == P.pzero()


@given(rand_poly(), rand_poly())
@settings(max_examples=60, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if not P.pis_zero(b):
        assert P.pdiv_exact(P.pmul(a, b), b) == a


def test_gcd_keeps_coefficients_small(time_limit):
    # without rational content stripping in the remainder sequence the
    # integers here reach hundreds of thousands of bits and pgcd stalls
    a = parse("-28/3*m^3*p^4 + 8*m^4*p^2 + 56*m^4*p - 28/3*m^3*p^2 + 16*m^2*p^3"
              " - 10/3*m^2*p^2 - 56*m^2*p - 16*p^3 + 14/3*m^2").num
    b = parse("2*m^4*p^3 + 14*m^4*p^2 + 4*m^2*p^4 - m^3*p - 7*m^3 - 2*m*p^2").num
    h = parse("m - 2*p + 3").num
    with time_limit(10):
        assert P.pgcd(a, b) == P.PONE
        assert P.pgcd(P.pmul(a, h), P.pmul(b, h)) == h


def test_int_normalize_strips_content():
    p = P.pscale(build([(2, "x", 1), (4, "y", 1)]), Fraction(1, 6))
    q, scale = P.pint_normalize(p)
    assert P.pscale(p, scale) == q
    coeffs = sorted(c for c in q.values())
    assert coeffs == [Fraction(1), Fraction(2)]


def test_univariate_roundtrip():
    p = build([(1, "x", 4), (-2, "x", 1)])
    u = P.as_univariate(p, "x")
    assert set(u) == {4, 1}
    assert P.from_univariate(u, "x") == p


@st.composite
def rand_monomial(draw):
    exps = {v: draw(st.integers(min_value=0, max_value=2)) for v in ("x", "y", "z")}
    return tuple((v, e) for v, e in exps.items() if e)


nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def rand_mpoly(draw):
    out = P.pzero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        out = P.padd(out, {draw(rand_monomial()): draw(nonzero)})
    return out


@given(rand_mpoly(), rand_monomial(), nonzero)
@settings(max_examples=150, deadline=None)
def test_one_term_division_is_exact_or_raises(a, bm, bc):
    b = {bm: bc}
    if all(P.mono_div(m, bm) is not None for m in a):
        q = P.pdiv_exact(a, b)
        assert P.pmul(q, b) == a
        assert P.pdiv_exact(P.pmul(a, b), b) == a
    else:
        with pytest.raises(ValueError):
            P.pdiv_exact(a, b)


def test_substituted_pair_reduces_without_stalling(time_limit):
    # a 49-term numerator over a 12-term denominator, coprime: the
    # remainder sequence alone ran for minutes on this pair
    x = parse("(1/2)*m^3*k*p^3/n^2 + (3/4)*n^3/(m^3*p^2) + 5*m^2/k^3")
    bindings = {"m": parse("1/(1 + n^3*p^3/k^2)"),
                "n": parse("(2/3)*k^3/m^2 - (5/4)/p^3")}
    num, den = x._substituted(bindings)
    with time_limit(10):
        got = x.substitute(bindings)
        assert P.pgcd(got.num, got.den) == P.PONE
    assert P.pmul(got.num, den) == P.pmul(got.den, num)


def test_gcd_in_fewer_variables_than_its_operands(time_limit):
    h = parse("(k - 2)^2*(m + 1)").num
    a = P.pmul(h, parse("k^3*n^2*p - 5*m^2*n*p^4 + 7/2*k*m^3 + n^5").num)
    b = P.pmul(h, parse("2*k^4*p^3 + m*n^3 - 3/4*k^2*m^2*n*p + 1").num)
    with time_limit(10):
        assert P.pgcd(a, b) == P.pint_normalize(h)[0]
        assert P.pgcd(P.pmul(a, parse("n*p^2").num), P.pmul(b, parse("n^3").num)) \
            == P.pint_normalize(P.pmul(h, parse("n").num))[0]


@given(rand_mpoly(), rand_mpoly(), rand_mpoly())
@settings(max_examples=100, deadline=None)
def test_gcd_is_the_greatest_common_divisor(a, b, h):
    if not (a and b and h):
        return
    ah, bh = P.pmul(a, h), P.pmul(b, h)
    g = P.pgcd(ah, bh)
    assert g == P.pint_normalize(g)[0]
    # h divides g, g divides both, and the cofactors share nothing more;
    # pdiv_exact raises ValueError on an inexact division
    P.pdiv_exact(g, h)
    assert P.pgcd(P.pdiv_exact(ah, g), P.pdiv_exact(bh, g)) == P.PONE
