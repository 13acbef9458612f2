"""Exact rational-function field: canonical forms, arithmetic, limits."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
    assert limit_at_zero(laurent_expand(parse("(m*eps + 3)/(eps + 1)"), "eps", 0)) \
        == parse("3")
    with pytest.raises(PoleError) as exc:
        limit_at_zero(laurent_expand(parse("m/eps"), "eps", 0))
    assert exc.value.diagnostics == [[-1, "m"]]
    # zero terms are skipped and at most three are listed
    series = laurent_expand(parse("(1 + 2*eps + eps^3 + m*eps^4)/eps^5"), "eps", -1)
    assert series.pole_terms() == [[-5, "1"], [-4, "2"], [-2, "1"]]


@pytest.mark.parametrize("text, order", [("3 + m/eps", -2), ("3 + m/eps", -1), ("3", -1)])
def test_limit_of_series_truncated_below_degree_zero_is_refused(text, order):
    # the constant term, and so the limit, lies beyond the truncation
    with pytest.raises(NotExpandable):
        limit_at_zero(laurent_expand(parse(text), "eps", order))


def test_pole_cancellation_across_sum():
    # the contraction mechanism in miniature: poles cancel, slope survives
    f = parse("eta*(r - s)").substitute(
        {"eta": parse("1/eps"), "r": parse("1 - (m + n)/2*eps"),
         "s": parse("1 + (m - n)/2*eps")})
    assert limit_at_zero(laurent_expand(f, "eps", 0)) == parse("-m")


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
    """The monomial key of a product of powers of variables."""
    out = P.PONE
    for v in variables:
        out = P.pmul(out, P.pvar(v, draw(st.integers(min_value=0, max_value=max_exp))))
    (m,) = out
    return m


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


# -- one-term denominators: products and sums over monomials ----------------

over_monomial = st.builds(
    lambda num, m, c: RatFunc(num, {m: c}),
    poly(max_terms=3, max_exp=3), monomial(max_exp=3), coeff.filter(bool))


@st.composite
def monomial_pair(draw):
    """Two values over one-term denominators, built to reach every branch."""
    x = draw(over_monomial)
    kind = draw(st.sampled_from(("free", "negation", "same", "cancel", "const")))
    if kind == "free":
        y = draw(over_monomial)  # distinct monomials: the lcm shift
    elif kind == "negation":
        y = -x  # x + y is zero
    elif kind == "same":
        y = x  # x - y is zero
    elif kind == "cancel":
        # y carries x's denominator as its numerator: x * y is over 1
        y = RatFunc(dict(x.den), {draw(monomial(max_exp=3)): P.F1}) * draw(coeff.filter(bool))
    else:
        y = draw(st.one_of(st.integers(min_value=-3, max_value=3), coeff))
    return x, y


@given(monomial_pair())
@settings(max_examples=200, deadline=None)
def test_one_term_denominators_match_general_reduction(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        ra, rb = RatFunc._coerce(a), RatFunc._coerce(b)
        cross = P.pmul(ra.den, rb.den)
        assert as_pair(a * b) == reference_canonical(P.pmul(ra.num, rb.num), cross)
        left, right = P.pmul(ra.num, rb.den), P.pmul(rb.num, ra.den)
        assert as_pair(a + b) == reference_canonical(P.padd(left, right), cross)
        assert as_pair(a - b) == reference_canonical(P.psub(left, right), cross)


def test_one_term_denominators_reach_each_branch():
    # lcm shift: m*p^2 and p^3*q share p^2
    assert parse("1/(m*p^2) + 1/(p^3*q)") == parse("(p*q + m)/(m*p^3*q)")
    assert parse("1/(m*p^2) - 1/(p^3*q)") == parse("(p*q - m)/(m*p^3*q)")
    # full cancellation to denominator 1
    assert as_pair(parse("2*m/p") * parse("p^2/m")) == (P.pscale(P.pvar("p"), 2), P.PONE)
    assert as_pair(parse("(m + p)/q") - parse("m/q")) == (P.pvar("p"), P.pvar("q"))
    # sums to zero and constants
    assert (parse("k/p") + parse("-k/p")).is_zero()
    assert (parse("k/p") - parse("k/p")).is_zero()
    assert as_pair(parse("3/p") * parse("p/6")) == as_pair(RatFunc.const(Fraction(1, 2)))
    assert as_pair(1 - parse("1/p")) == as_pair(parse("(p - 1)/p"))


# -- truncated Laurent expansion: the default expansion is the reference -----
# eps-degrees stay at most 3, so the valuation is at most 3 and the default
# expansion (through pole order + 4) always reaches it

eps_monomial = monomial(variables=("eps", "m"), max_exp=3)
eps_denominator = st.one_of(
    st.builds(lambda m, c: {m: c}, eps_monomial, coeff.filter(bool)),
    # several terms, kept small as above, times a power of eps for poles
    st.builds(lambda d, k: P.pmul(d, P.pvar("eps", k)),
              poly(min_terms=2, variables=("eps", "m"), max_exp=1).filter(
                  lambda d: len(d) >= 2),
              st.integers(min_value=0, max_value=2)))


@given(poly(min_terms=1, variables=("eps", "m"), max_exp=3), eps_denominator)
@settings(max_examples=120, deadline=None)
def test_truncated_expansion_matches_default(time_limit, num, den):
    with time_limit(10):
        f = RatFunc(num, den)
        assume(not f.is_zero())
        full = laurent_expand(f, "eps")
        val, pole = full.min_degree, full.pole_order()
        for order in range(val - 1, pole + 5):
            cut = laurent_expand(f, "eps", order)
            assert cut.truncation_order == order
            if order < val:
                assert cut.is_zero()  # no term at or below the order
            else:
                assert (cut.min_degree, cut.pole_order()) == (val, pole)
            for k in range(val - 1, order + 1):
                assert cut.coefficient(k) == full.coefficient(k)
            with pytest.raises(NotExpandable):
                cut.coefficient(order + 1)


def test_substituted_pair_is_a_fraction_of_substitute():
    f = parse("eta*(r - s)/(r + s)")
    binds = {"eta": parse("1/eps"), "r": parse("1 - m*eps"), "s": parse("1 + n*eps")}
    num, den = f._substituted(binds)
    assert RatFunc(num, den) == f.substitute(binds)
    m = parse("m")
    assert m._substituted(binds) is None and m.substitute(binds) is m
    with pytest.raises(DivisionByZero, match="substitution sends denominator to zero"):
        f.substitute({"r": parse("-s")})


# -- substitution by fractions with several-term denominators ---------------
# The reference evaluates f at the evaluated bindings; the substituted value
# is read at the same point.  Terms of f that lack a bound variable must
# still be cleared to that variable's top exponent.

def evaluate(p, point):
    """p at point, which gives every variable of p a value."""
    powers = [(point[v], P.pexponents(p, v)) for v in point]
    total = Fraction(0)
    for i, c in enumerate(p.values()):
        for x, exps in powers:
            c *= x ** exps[i]
        total += c
    return total


binding_numerator = poly(min_terms=1, max_terms=2, variables=("k", "q"), max_exp=1)
binding_denominator = poly(min_terms=2, variables=("k", "q"), max_exp=1).filter(
    lambda d: len(d) >= 2)
binding = st.builds(RatFunc, binding_numerator, binding_denominator)
point = st.fixed_dictionaries({v: coeff for v in ("k", "m", "p", "q")})


@given(poly(min_terms=1), denominator,
       st.dictionaries(st.sampled_from(("m", "p")), binding, min_size=1),
       st.lists(point, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_substitution_by_fractions_matches_evaluation(time_limit, num, den, binds, points):
    with time_limit(10):
        f = RatFunc(num, den)
        try:
            got = f.substitute(binds)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                f._substituted(binds)
            return
        pair = f._substituted(binds) or (f.num, f.den)
        assert RatFunc(*pair) == got
        for at in points:
            values = {v: evaluate(b.den, at) for v, b in binds.items()}
            if not all(values.values()):
                continue
            inner = dict(at)
            for v, b in binds.items():
                inner[v] = evaluate(b.num, at) / values[v]
            want_den = evaluate(f.den, inner)
            if not want_den or not evaluate(got.den, at) or not evaluate(pair[1], at):
                continue
            want = evaluate(f.num, inner) / want_den
            assert evaluate(got.num, at) / evaluate(got.den, at) == want
            assert evaluate(pair[0], at) / evaluate(pair[1], at) == want


def test_terms_without_a_bound_variable_are_cleared_too():
    # q and 1 lack m, so they are multiplied by (1 + k)^2 with the rest
    f = parse("(m^2 + q)/(m + 1)")
    binds = {"m": parse("1/(1 + k)")}
    want = parse("(1 + q*(1 + k)^2)/((1 + k)*(2 + k))")
    assert f.substitute(binds) == want
    assert RatFunc(*f._substituted(binds)) == want
