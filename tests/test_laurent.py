"""Packed Laurent coefficients and their tower with RatFunc.

Every Laurent result is checked against RatFunc arithmetic on the same
values (to_rf), which runs through poly's canonical form, and a few
products against sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge.errors import DegreeOverflow, DivisionByZero
from jforge.field import RatFunc
from jforge.grammar import parse, serialize
from jforge.laurent import L_ONE, L_ZERO, Laurent, Substitution, coerce
from jforge.poly import SLOT_BITS

VARS = ("m", "n", "k", "p")
LIMIT = 1 << (SLOT_BITS - 2)


@st.composite
def laurent_text(draw, min_terms=0, max_terms=3):
    """Text of a sum of terms c * m^a * n^b * k^c * p^d, exponents -3..3."""
    terms = []
    for _ in range(draw(st.integers(min_value=min_terms, max_value=max_terms))):
        num = draw(st.integers(min_value=-6, max_value=6).filter(bool))
        den = draw(st.integers(min_value=1, max_value=4))
        factors = [f"({num}/{den})"]
        for v in VARS:
            e = draw(st.integers(min_value=-3, max_value=3))
            if e:
                factors.append(f"{v}^({e})")
        terms.append("*".join(factors))
    return " + ".join(terms) or "0"


@st.composite
def laurent_pair(draw):
    """(Laurent, RatFunc) holding the same value."""
    r = parse(draw(laurent_text()))
    return coerce(r), r


@st.composite
def single_term(draw):
    r = parse(draw(laurent_text(min_terms=1, max_terms=1)))
    return coerce(r), r


def test_coerce_keeps_types_apart():
    assert isinstance(coerce(parse("k/p + m")), Laurent)
    assert isinstance(coerce(parse("2*k/(p*m^2)")), Laurent)
    assert isinstance(coerce(parse("1/(1 + m)")), RatFunc)
    assert coerce(3) == Laurent.const(3) == parse("3")
    assert coerce(Fraction(1, 2)).terms == {0: Fraction(1, 2)}
    assert coerce(Fraction(4, 2)).terms == {0: 2}
    assert type(coerce(Fraction(4, 2)).terms[0]) is int
    assert coerce(parse("0")) is L_ZERO


@given(laurent_pair())
@settings(max_examples=80, deadline=None)
def test_coerce_roundtrips_through_to_rf(pair):
    x, r = pair
    assert isinstance(x, Laurent)
    back = x.to_rf()
    assert back.num == r.num and back.den == r.den
    assert serialize(x) == serialize(r)


@given(laurent_pair(), laurent_pair())
@settings(max_examples=120, deadline=None)
def test_ring_operations_match_ratfunc(left, right):
    (a, ra), (b, rb) = left, right
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (-a, -ra), (b - a, rb - ra)):
        assert isinstance(got, Laurent)
        assert got.to_rf() == want
        # every stored coefficient is canonical: int when integral
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


@given(single_term(), laurent_pair())
@settings(max_examples=80, deadline=None)
def test_single_term_inverse_stays_laurent(term, other):
    (t, rt), (b, rb) = term, other
    inv = t.inverse()
    assert isinstance(inv, Laurent)
    assert inv.to_rf() == rt.inverse()
    assert (b / t).to_rf() == rb / rt
    assert t * inv == L_ONE


@given(laurent_pair())
@settings(max_examples=80, deadline=None)
def test_equality_and_hash_cross_the_tower(pair):
    x, r = pair
    assert x == r and r == x
    assert not (x != r)
    assert hash(x) == hash(r)
    assert hash(x) == hash(x.to_rf())
    assert x == coerce(parse(serialize(x)))
    assert (x == L_ZERO) == r.is_zero()
    assert serialize(x) == serialize(x.to_rf())


@st.composite
def tower_bindings(draw):
    """Values for some of the parameters: a rational point, zero included,
    or values that may also be Laurent values of one term (any monomial) or
    several, or a RatFunc.  The values of several terms are small, so the
    RatFunc route's gcds stay quick."""
    names = sorted(draw(st.sets(st.sampled_from(VARS))))
    constant = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if not draw(st.booleans()):
        return {v: draw(constant) for v in names}
    expression = st.one_of(
        constant,
        laurent_text(min_terms=1, max_terms=1).map(parse),
        st.sampled_from(["1 + m", "k - 1/2", "(n + 1)/n", "1/(1 + m)", "p/(k - 2)"]).map(parse))
    return {v: draw(expression) for v in names}


@given(laurent_pair(), tower_bindings())
@settings(max_examples=150, deadline=None)
def test_substitute_matches_the_ratfunc_route(pair, bindings):
    x, _r = pair
    try:
        want = coerce(x.to_rf().substitute(bindings))
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            Substitution(bindings)(x)
        return
    got = Substitution(bindings)(x)
    assert type(got) is type(want)
    assert got == want
    if type(got) is not Laurent:
        return
    assert got.terms == want.terms
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


def test_substitute_keeps_unbound_exponents_and_raises_at_a_pole():
    x = coerce(parse("k/p + m^2*n^(-1)"))
    assert Substitution({"p": 2})(x) == coerce(parse("k/2 + m^2/n"))
    assert Substitution({"m": Fraction(1, 2), "n": 3})(x) == coerce(parse("k/p + 1/12"))
    assert Substitution({"q": 5})(x) is x
    assert Substitution({"m": parse("n"), "n": parse("m")})(x) == coerce(parse("k/p + n^2/m"))
    assert Substitution({"p": parse("1 + m"), "n": 2})(x) == parse("k/(1 + m) + m^2/2")
    assert Substitution({"m": 0})(x) == coerce(parse("k/p"))
    with pytest.raises(DivisionByZero):
        Substitution({"p": 0})(x)
    with pytest.raises(DivisionByZero):
        Substitution({"m": 0, "p": 0})(coerce(parse("m/p")))


def test_constants_compare_with_numbers():
    assert L_ONE == 1 and L_ZERO == 0 and 1 == L_ONE
    assert coerce(parse("-3/2")) == Fraction(-3, 2)
    assert coerce(parse("p")) != 1
    assert hash(L_ONE) == hash(parse("1"))


@pytest.mark.parametrize("text", ["3/7", "(2/3)*m*p^(-2)", "m/2 + 3*p^(-1) - 5*k*n"])
def test_unit_product_returns_the_other_operand(text):
    x = coerce(parse(text))
    types = {mono: type(c) for mono, c in x.terms.items()}
    for product in (x * L_ONE, L_ONE * x, x * Laurent.const(1)):
        # on either side the unit returns x itself, with no product taken
        assert product is x
        assert product.terms == x.terms
        assert {mono: type(c) for mono, c in product.terms.items()} == types


def test_multi_term_inverse_returns_ratfunc():
    x = coerce(parse("k/p + m"))
    inv = x.inverse()
    assert isinstance(inv, RatFunc)
    assert inv == parse("k/p + m").inverse() == parse("p/(k + m*p)")
    with pytest.raises(DivisionByZero):
        L_ZERO.inverse()


def test_mixing_in_a_ratfunc_promotes():
    x = coerce(parse("2*k/p - m^2"))
    r = parse("(k + n)/(1 + m*p)")
    for got, want in ((x * r, parse("2*k/p - m^2") * r),
                      (r * x, r * parse("2*k/p - m^2")),
                      (x + r, parse("2*k/p - m^2") + r),
                      (r - x, r - parse("2*k/p - m^2")),
                      (x / r, parse("2*k/p - m^2") / r)):
        assert isinstance(got, RatFunc)
        assert got.num == want.num and got.den == want.den


# x: a Laurent with one term and with several; y: every kind of operand.
# A Laurent combined with anything that is not a Laurent goes through
# x.to_rf(), so each result equals the same operation on x.to_rf().
TOWER_X = ("(2/3)*m*p^(-2)", "m/2 + 3*p^(-1) - 5*k*n")
TOWER_Y = {
    "laurent-one-term": lambda: coerce(parse("k/p")),
    "laurent-several-terms": lambda: coerce(parse("k/p - n^2")),
    "ratfunc-one-term-denominator": lambda: parse("(k + n)/p^2"),
    "ratfunc-several-term-denominator": lambda: parse("(k + n)/(1 + m*p)"),
    "int": lambda: 3,
    "fraction": lambda: Fraction(-5, 4),
}
TOWER_OPS = {
    "x+y": lambda x, y: x + y,
    "y+x": lambda x, y: y + x,
    "x-y": lambda x, y: x - y,
    "y-x": lambda x, y: y - x,
    "x*y": lambda x, y: x * y,
    "y*x": lambda x, y: y * x,
    "x/y": lambda x, y: x / y,
}


@pytest.mark.parametrize("text", TOWER_X)
@pytest.mark.parametrize("kind", TOWER_Y)
@pytest.mark.parametrize("op", TOWER_OPS)
def test_one_promotion_rule(text, kind, op):
    x, y = coerce(parse(text)), TOWER_Y[kind]()
    assert isinstance(x, Laurent)
    got, want = TOWER_OPS[op](x, y), TOWER_OPS[op](x.to_rf(), y)
    assert isinstance(want, RatFunc)
    assert got == want
    # Laurent exactly when both operands are, except that dividing by
    # several terms leaves the ring
    stays = type(y) is Laurent and (op != "x/y" or len(y.terms) == 1)
    assert type(got) is (Laurent if stays else RatFunc)
    if not stays:
        assert got.num == want.num and got.den == want.den


@pytest.mark.parametrize("text", TOWER_X)
@pytest.mark.parametrize("kind", TOWER_Y)
def test_equality_follows_the_promotion_rule(text, kind):
    y = TOWER_Y[kind]()
    # x differs from y; the value of y as a Laurent, where it is one, equals it
    pairs = [(coerce(parse(text)), False)]
    if type(coerce(y)) is Laurent:
        pairs.append((coerce(y), True))
    for x, equal in pairs:
        assert (x == y) is (x.to_rf() == y) is equal
        assert (y == x) is equal


def test_products_against_sympy():
    sympy = pytest.importorskip("sympy")
    syms = {v: sympy.Symbol(v) for v in VARS}

    def sym(x):
        return sympy.sympify(serialize(x), locals=syms)

    cases = [("2*k/p - m", "p^2*n + 1/(3*k)"),
             ("m/n + n/m", "m/n - n/m"),
             ("(1/2)*p^(-3) + k", "4*p^3 - 2*k*p^2 + m"),
             ("k^2/(m*p) - 7", "k^2/(m*p) + 7")]
    for left, right in cases:
        a, b = coerce(parse(left)), coerce(parse(right))
        assert sympy.simplify(sym(a * b) - sym(a) * sym(b)) == 0
        assert sympy.simplify(sym(a + b) - sym(a) - sym(b)) == 0


def test_exponent_past_the_guard_raises():
    top = coerce(parse(f"p^{LIMIT - 1}"))
    bottom = coerce(parse(f"1/p^{LIMIT}"))
    # the edges of the range are fine
    assert (top * coerce(parse("1/p"))).to_rf() == parse(f"p^{LIMIT - 2}")
    assert (bottom * coerce(parse("m^3"))).to_rf() == parse(f"m^3/p^{LIMIT}")
    with pytest.raises(DegreeOverflow):
        top * coerce(parse("p"))
    with pytest.raises(DegreeOverflow):
        bottom * coerce(parse("1/p"))
    with pytest.raises(DegreeOverflow):
        bottom.inverse()
    with pytest.raises(DegreeOverflow):
        coerce(parse(f"p^{LIMIT}"))
    # an overflow in one slot is caught whatever the other slots hold
    low = coerce(parse(f"n^(-3)/m^{LIMIT}"))
    with pytest.raises(DegreeOverflow):
        low * coerce(parse("k^2/m"))
    high = coerce(parse(f"k^{LIMIT - 1}*n^(-2) + 1"))
    with pytest.raises(DegreeOverflow):
        high * coerce(parse("k/n + m"))
