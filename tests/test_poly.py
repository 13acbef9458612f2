"""Polynomial core: arithmetic, exact division, gcd, canonical text."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge import poly as P
from jforge.errors import DegreeOverflow
from jforge.grammar import parse

ROOT = Path(__file__).resolve().parents[1]


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


def test_a_polynomial_slot_holds_exponents_below_32768():
    # a Laurent slot holds [-16384, 16384); a RatFunc's polynomials hold
    # twice that, so a Laurent's denominator and a parsed m^20000 fit
    assert P.pexponents(parse("m^32767").num, "m") == [32767]
    assert P.pexponents(parse("1/m^16384").den, "m") == [16384]
    with pytest.raises(DegreeOverflow):
        parse("m^32768")
    with pytest.raises(DegreeOverflow):
        parse("(m^20000 + 1)*(k + m^20000)")
    with pytest.raises(DegreeOverflow):
        P.pvar("m", 32768)


@st.composite
def rand_monomial(draw):
    out = P.PONE
    for v in ("x", "y", "z"):
        out = P.pmul(out, P.pvar(v, draw(st.integers(min_value=0, max_value=2))))
    (m,) = out
    return m


def divides(bm, m) -> bool:
    """Each of x, y, z has no higher exponent in the monomial bm than in m."""
    return all(P.pexponents({bm: 1}, v)[0] <= P.pexponents({m: 1}, v)[0]
               for v in ("x", "y", "z"))


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
    if all(divides(bm, m) for m in a):
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


# -- an independent reference: sympy's gcd ----------------------------------

@st.composite
def planted_pair(draw):
    """(a*h, b*h, the variables) over two or three variables."""
    names = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
    parts = []
    for _ in range(3):
        out = P.pzero()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            term = P.pconst(draw(nonzero))
            for v in names:
                term = P.pmul(term, P.pvar(v, draw(st.integers(min_value=0, max_value=2))))
            out = P.padd(out, term)
        parts.append(out)
    a, b, h = parts
    return P.pmul(a, h), P.pmul(b, h), names


@given(planted_pair())
@settings(max_examples=80, deadline=None)
def test_gcd_agrees_with_sympy(time_limit, pair):
    sympy = pytest.importorskip("sympy")
    ah, bh, names = pair
    if not (ah and bh):
        return
    gens = sympy.symbols(names)  # sorted by name: graded lex as in pstr
    with time_limit(10):
        g = P.pgcd(ah, bh)
        want = sympy.gcd(sympy.sympify(P.pstr(ah)), sympy.sympify(P.pstr(bh)))
    got = sympy.sympify(P.pstr(g))
    ratio = sympy.cancel(got / want)
    assert ratio.is_Rational and ratio != 0
    coeffs = [Fraction(c) for c in g.values()]
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert sympy.Poly(got, *gens).LC(order="grlex") > 0


# -- the slot registry's order never reaches the output ---------------------

_REGISTRY_ORDER = """
import json, sys
from jforge import laurent, poly as P
if sys.argv[1] == "reversed":
    for name in ("p", "n", "m", "k"):
        laurent.Laurent.var(name)
from jforge.grammar import parse, serialize
texts = ["(k - m^2*p)/(n^2 - 3*k*p + 1)", "-(m + 2*n)/(p - k)",
         "k/p^3 - m^2/n", "(1/2)*p^(-3) - k", "-3*m*n^2*k + 5/7*p^4 - n",
         "(m - n)^3/(k*p + n^2)^2", "-1/(m*n^2*p)"]
out = [serialize(parse(t)) for t in texts]
out += [serialize(laurent.coerce(parse(t))) for t in texts[2:4]]
h = parse("-(m - 2*n + 3)*(k*p - n^2)").num
for left, right in (("k + p", "n - m*k"), ("(m + k)*p", "3*n^2 - k")):
    a, b = parse(left).num, parse(right).num
    out.append(P.pstr(P.pgcd(P.pmul(a, h), P.pmul(b, h))))
for text in ("-(3/2)*p^2*k + 6*m*n - 9/4", "2/3*n - 4*k*m^2 + 8/3*p"):
    q, scale = P.pint_normalize(parse(text).num)
    out.append([P.pstr(q), str(scale)])
print(json.dumps([P._NAMES, out]))
"""


def test_registry_order_does_not_reach_text_gcd_or_normal_form():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {}
    for mode in ("default", "reversed"):
        proc = subprocess.run([sys.executable, "-c", _REGISTRY_ORDER, mode],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        runs[mode] = json.loads(proc.stdout)
    (names, out), (names_reversed, out_reversed) = runs["default"], runs["reversed"]
    assert names == ["k", "m", "p", "n"] and names_reversed == ["p", "n", "m", "k"]
    assert out == out_reversed == _ORDERED_BY_NAME


# the same values as rendered by the tuple-keyed polynomials that kept each
# monomial's variables sorted by name
_ORDERED_BY_NAME = [
    "(m^2*p - k)/(3*k*p - n^2 - 1)", "(m + 2*n)/(k - p)", "(-m^2*p^3 + k*n)/(n*p^3)",
    "(-k*p^3 + 1/2)/(p^3)", "-3*k*m*n^2 + 5/7*p^4 - n",
    "(m^3 - 3*m^2*n + 3*m*n^2 - n^3)/(k^2*p^2 + 2*k*n^2*p + n^4)", "-1/(m*n^2*p)",
    "(-m^2*p^3 + k*n)/(n*p^3)", "(-k*p^3 + 1/2)/(p^3)",
    "k*m*p - 2*k*n*p - m*n^2 + 2*n^3 + 3*k*p - 3*n^2",
    "k*m*p - 2*k*n*p - m*n^2 + 2*n^3 + 3*k*p - 3*n^2",
    ["2*k*p^2 - 8*m*n + 3", "-4/3"], ["6*k*m^2 - n - 4*p", "-3/2"],
]
