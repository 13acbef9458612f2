"""Laurent polynomials over Q on packed exponent vectors.

Every value this project builds in Q[params^±1] is a Laurent: the
R-matrices and twists of rmat.py with everything linalg computes from them
(conjugates, Yang-Baxter products, inverses of unipotent twists), the
coefficients of field.laurent_expand, and every coefficient on the algebra
side of the rewriting, in Q[m,n,k,p^±1].  A Laurent value holds one as a
dict of poly.py's packed monomials, signed here, to nonzero coefficients,
ints when integral: the representation of RatFunc's numerator and
denominator, so a product or sum runs poly's one product loop (pmul, after
the unit and one-term products taken here) and its one sum loop (padd).
Exponents lie in [-2^(SLOT_BITS-2), 2^(SLOT_BITS-2)), and one mask test
after each product or inverse raises DegreeOverflow outside that range.

Laurent and RatFunc form one numeric tower, as int and Fraction do, under
one promotion rule: Laurent op Laurent stays Laurent (+, -, *, negation,
inverse of a single term), and a Laurent with any other operand (RatFunc,
int, Fraction) goes through the cached to_rf(), equality included.  to_rf
adds one monomial, the lowest exponents' negation, to every term.  The
inverse of several terms is a RatFunc; hash(x) == hash(x.to_rf()).
coerce() converts where a value enters the algebra: rtt._rf, rtt_entries,
RewriteRule, nc_scale and Substitution.  A RatFunc with a one-term
denominator becomes Laurent by subtracting that monomial from every term
of its numerator, any other stays a RatFunc.

L_ONE is the one unit the tower hands out: Laurent.const(1),
Laurent.of({0: 1}), coerce of a value equal to 1, and a one-term
product, inverse or negation equal to 1 return it.  So a product by it
is skipped on `is L_ONE`, in __mul__ and in field.add_terms.  A
Laurent({0: 1}) built directly is equal to it and only multiplies like
any other value.

Substitution is the one map that puts bound values into Laurent values:
TensorMat.substitute, the read-off route of jforge.specialize and hopf's
m = n collapse all use it.  RatFunc.substitute stays the map for RatFunc
values (parsed text, the schedule), and a Substitution whose bound factor
is not a Laurent goes through to_rf() to it.  The contraction puts a
schedule's series in place of the bound variables itself, one packed
monomial at a time (poly.split_monomial).
"""

from __future__ import annotations

from fractions import Fraction

from . import poly as P
from .errors import DivisionByZero
from .field import RatFunc
from .poly import _coef, _overflow


class Laurent:
    """Immutable Laurent polynomial: {packed monomial: nonzero coefficient}."""

    __slots__ = ("terms", "_rf")

    def __init__(self, terms: dict):
        self.terms = terms
        self._rf = None

    @staticmethod
    def const(c) -> "Laurent":
        c = _coef(c)
        return Laurent.of({0: c}) if c else L_ZERO

    @staticmethod
    def var(name: str) -> "Laurent":
        return Laurent(P.pvar(name))

    @staticmethod
    def of(terms: dict) -> "Laurent":
        """The value with these terms: L_ZERO, L_ONE or a new Laurent."""
        if not terms:
            return L_ZERO
        return L_ONE if terms == L_ONE.terms else Laurent(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def variables(self) -> set:
        return P.pvars(self.terms)

    def to_rf(self) -> RatFunc:
        """The same value as a canonical RatFunc (computed once)."""
        rf = self._rf
        if rf is None:
            # the denominator x^shift lifts each negative lowest exponent to 0
            terms = self.terms
            shift = -P.pcommon_monomial([*terms, 0])
            # canonical as it stands: every shifted variable is missing from
            # some term of num, so num and the monomial share no factor
            num = {m + shift: c for m, c in terms.items()} if shift else terms
            rf = self._rf = RatFunc(num, {shift: 1}, _reduced=True)
        return rf

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if type(other) is not Laurent:
            return self.to_rf() + other
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        out = P.padd(a, b)
        return Laurent(out) if out else L_ZERO

    __radd__ = __add__

    def __neg__(self):
        return Laurent.of(P.pneg(self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not Laurent:
            return self.to_rf() * other
        # a product by the unit is no product (see L_ONE)
        if other is L_ONE:
            return self
        if self is L_ONE:
            return other
        a, b = self.terms, other.terms
        if not a or not b:
            return L_ZERO
        if len(a) > len(b):
            a, b = b, a
        bias = P._BIAS
        if len(a) == 1:
            # one term times b: the monomials stay distinct, nothing cancels
            (ma, ca), = a.items()
            guard = P._GUARD
            out = {}
            for mb, cb in b.items():
                m = ma + mb
                if (m + bias) & guard:
                    _overflow(True)
                c = ca * cb
                out[m] = c if type(c) is int else _coef(c)
            # Laurent.of(out), testing the last monomial first
            return L_ONE if m == 0 and out == L_ONE.terms else Laurent(out)
        out = P.pmul(a, b, bias)
        return Laurent(out) if out else L_ZERO

    __rmul__ = __mul__

    def inverse(self):
        """1/self: Laurent for a single term, RatFunc for several."""
        terms = self.terms
        if not terms:
            raise DivisionByZero("inverse of zero")
        if len(terms) > 1:
            return self.to_rf().inverse()
        (m, c), = terms.items()
        m = -m
        if (m + P._BIAS) & P._GUARD:
            _overflow(True)
        return Laurent.of({m: c if c == 1 or c == -1 else _coef(1 / Fraction(c))})

    def __pow__(self, e: int):
        """self^e; a negative power of several terms is a RatFunc."""
        base = self if e >= 0 else self.inverse()
        out = L_ONE
        for _ in range(abs(e)):
            out = out * base
        return out

    def __truediv__(self, other):
        if type(other) is not Laurent:
            return self.to_rf() / other
        return self * other.inverse()

    # -- structure --------------------------------------------------------
    def __eq__(self, other):
        if type(other) is Laurent:
            return self.terms == other.terms
        return self.to_rf() == other

    def __hash__(self):
        return hash(self.to_rf())

    def __repr__(self):
        return f"Laurent({self})"

    def __str__(self):
        return str(self.to_rf())


L_ZERO = Laurent({})
L_ONE = Laurent({0: 1})


class Substitution:
    """Values put in for some parameters, as the one map on the tower.

    A value is a constant, a Laurent or a RatFunc, all put in at once; a
    pole raises DivisionByZero.  Each packed monomial of a Laurent splits,
    once per Substitution, into its unbound rest and the product of its
    bound factors: a Fraction at a rational point, which returns a Laurent
    with no bound parameter as it is, else a Laurent.  A factor that is not
    a Laurent (a value of several terms inverted, or a RatFunc value) sends
    x through RatFunc.substitute, as every RatFunc goes.
    """

    def __init__(self, bindings: dict):
        values = {name: coerce(v) for name, v in bindings.items()}
        self._point = not any(v.variables() for v in values.values())
        if self._point:
            values = {name: Fraction(v.terms.get(0, 0)) for name, v in values.items()}
        self.bindings = values
        self._split = {}

    def _monomial(self, m: int) -> tuple:
        """(product of the bound factors, packed unbound rest) of m."""
        hit = self._split.get(m)
        if hit is None:
            exps, rest = P.split_monomial(m, self.bindings)
            factor = Fraction(1) if self._point else L_ONE
            for e, value in zip(exps, self.bindings.values()):
                if e:
                    if e < 0 and not value:
                        raise DivisionByZero("substitution sends denominator to zero")
                    factor *= value ** e
            hit = self._split[m] = (_coef(factor), rest)
        return hit

    def __call__(self, x):
        if type(x) is not Laurent:
            return coerce(x.substitute(self.bindings))
        if not self._point:
            out = L_ZERO
            for m, c in x.terms.items():
                factor, rest = self._monomial(m)
                if type(factor) is not Laurent:
                    return coerce(x.to_rf().substitute(self.bindings))
                out = out + factor * Laurent({rest: c})
            return out
        out = {}
        changed = False
        for m, c in x.terms.items():
            factor, rest = self._monomial(m)
            if rest != m or factor != 1:
                changed = True
                if not factor:
                    continue
                c = _coef(c * factor)
            old = out.get(rest)
            if old is None:
                out[rest] = c
            else:
                c += old
                if c:
                    out[rest] = _coef(c)
                else:
                    del out[rest]
        if not changed:
            return x
        return Laurent(out) if out else L_ZERO


def coerce(x):
    """x as a Laurent where it is one, else as a RatFunc.

    Laurent values pass through; ints and Fractions become constants; a
    RatFunc becomes Laurent exactly when its denominator is one term (monic
    in canonical form), and any other RatFunc is returned unchanged.
    """
    if type(x) is Laurent:
        return x
    if isinstance(x, RatFunc):
        if len(x.den) != 1:
            return x
        (dm, _), = x.den.items()
        return Laurent.of(P.pmul(x.num, {-dm: 1}, P._BIAS))
    if isinstance(x, (int, Fraction)):
        return Laurent.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as a coefficient")
