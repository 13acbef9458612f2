"""Field of exact multivariate rational functions, plus Laurent expansion.

A RatFunc is a reduced fraction num/den of sparse polynomials on packed
monomials with no negative exponent (see poly.py).  The canonical form is
unique: gcd(num, den) = 1 and den is scaled to integer coefficients with
content 1 and a positive leading coefficient; coefficients are ints when
integral.  Structural equality of canonical forms therefore decides
mathematical equality, which is what every verification step in this
project ultimately relies on.

RatFunc is the top of a two-type numeric tower.  Every value in
Q[params^±1] is a laurent.Laurent, a dict of the same packed monomials
with signed exponents: the R-matrices and their products, the
coefficients of a Laurent expansion and the algebra side of the
rewriting.  RatFunc holds what leaves that ring (denominators of several
terms, parsed text, --set values).  _coerce accepts a Laurent through its
cached to_rf(), so mixed operations land here.  add_terms accumulates
either type.

One path reaches the canonical form, poly's: the constructors, the field
operations and every product or sum run pgcd, pdiv_exact, then
pint_normalize.  For a one-term operand these run no remainder sequence
(pgcd returns the shared monomial, pdiv_exact subtracts monomials,
pint_normalize scales by 1/c, and is skipped when c is 1); several-term
ones run pgcd's remainder sequence, long division and the content pass.

Substitution works on the polynomials: each bound parameter's
denominator is cleared to its top exponent, so RatFunc._substituted
builds the substituted numerator and denominator with no gcd pass, and
substitute reduces that pair once.  laurent_expand expands one value of
the tower; its coefficients in the expansion variable are polynomials,
so each is a Laurent as it stands.  series_mul and series_inverse are
the truncated power-series arithmetic it shares with the contraction,
which expands each bound value of a schedule once and every entry term
by term.

No floating point appears anywhere; coefficients are Fractions of unbounded
size.  Values are immutable and hashable.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import poly as P
from .errors import DivisionByZero, NotExpandable, PoleError


def _unit_sign(f) -> int:
    """1 or -1 when the RatFunc f is that constant, else 0."""
    if len(f.num) == 1 and f.den == P.PONE:
        c = f.num.get(0)
        if c == 1 or c == -1:
            return int(c)
    return 0


class RatFunc:
    """Immutable rational function in named parameters over Q."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: P.Poly, den: P.Poly = None, *, _reduced: bool = False):
        den = P.PONE if den is None else den
        if P.pis_zero(den):
            raise DivisionByZero("rational function with zero denominator")
        if P.pis_zero(num):
            num, den = {}, dict(P.PONE)
        elif not _reduced:
            g = P.pgcd(num, den)
            if g != P.PONE:
                num = P.pdiv_exact(num, g)
                den = P.pdiv_exact(den, g)
        # a monic one-term denominator, as Laurent.to_rf builds, is canonical
        if not P.pis_zero(num) and (len(den) > 1 or next(iter(den.values())) != 1):
            den, scale = P.pint_normalize(den)
            if scale != 1:
                num = P.pscale(num, scale)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(P.pconst(c), _reduced=True)

    @staticmethod
    def var(name) -> "RatFunc":
        return RatFunc(P.pvar(name), _reduced=True)

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def variables(self) -> set:
        return P.pvars(self.num) | P.pvars(self.den)

    # -- arithmetic -------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        # a Laurent (see laurent.py) converts through its cached RatFunc form
        to_rf = getattr(x, "to_rf", None)
        return NotImplemented if to_rf is None else to_rf()

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(P.padd(self.num, other.num), dict(self.den))
        num = P.padd(P.pmul(self.num, other.den), P.pmul(other.num, self.den))
        return RatFunc(num, P.pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(P.pneg(self.num), dict(self.den), _reduced=True)

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        return self + (-other)

    def __rsub__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        sign = _unit_sign(self)
        if sign:
            return other if sign == 1 else -other
        sign = _unit_sign(other)
        if sign:
            return self if sign == 1 else -self
        sn, sd, on, od = self.num, self.den, other.num, other.den
        # cross-cancel so the final gcd pass is trivial on reduced inputs;
        # a denominator 1 has nothing to cancel against
        if od != P.PONE:
            g = P.pgcd(sn, od)
            if g != P.PONE:
                sn, od = P.pdiv_exact(sn, g), P.pdiv_exact(od, g)
        if sd != P.PONE:
            g = P.pgcd(on, sd)
            if g != P.PONE:
                on, sd = P.pdiv_exact(on, g), P.pdiv_exact(sd, g)
        return RatFunc(P.pmul(sn, on), P.pmul(sd, od), _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(dict(self.den), dict(self.num), _reduced=True)

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(P.ppow(self.num, n), P.ppow(self.den, n), _reduced=True)

    # -- structure --------------------------------------------------------
    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((frozenset(self.num.items()), frozenset(self.den.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        from .grammar import serialize

        return serialize(self)

    # -- maps ---------------------------------------------------------------
    def substitute(self, bindings: dict) -> "RatFunc":
        """Simultaneous substitution of parameters by rational functions.

        Unbound parameters stay themselves.  Raises DivisionByZero when the
        denominator collapses to zero under the substitution.
        """
        pieces = self._substituted(bindings)
        return self if pieces is None else RatFunc(*pieces)

    def _substituted(self, bindings: dict):
        """(N, D): polynomials with N / D equal to self with the bindings
        put in, or None when no bound parameter occurs.

        A parameter v bound to a/b, with top exponent E in num and den
        together, enters every monomial as a^e * b^(E - e), e its exponent
        there (0 included): num and den are both multiplied by b^E, which
        clears every denominator and leaves the fraction as it was.
        """
        top = {}
        for v in bindings:
            high = max(P.pexponents(self.num, v) + P.pexponents(self.den, v))
            if high:
                top[v] = high
        if not top:
            return None
        factors = {}
        for v, high in top.items():
            b = RatFunc._coerce(bindings[v])
            ups = [P.ppow(b.num, e) for e in range(high + 1)]
            downs = [P.ppow(b.den, e) for e in range(high + 1)]
            factors[v] = [P.pmul(ups[e], downs[high - e]) for e in range(high + 1)]
        num = _poly_substitute(self.num, factors)
        den = _poly_substitute(self.den, factors)
        if not den:
            raise DivisionByZero("substitution sends denominator to zero")
        return num, den


def _poly_substitute(p: P.Poly, factors: dict) -> P.Poly:
    """p with each bound v^e, e = 0 included, replaced by factors[v][e]
    (a^e * b^(E - e), see RatFunc._substituted)."""
    out = {}
    for m, c in p.items():
        exps, rest = P.split_monomial(m, factors)
        term = {rest: c}
        for by_exp, e in zip(factors.values(), exps):
            term = P.pmul(term, by_exp[e])
        for tm, tc in term.items():
            out[tm] = out.get(tm, 0) + tc
    return {m: P._coef(c) for m, c in out.items() if c}


RF_ZERO = RatFunc(P.pzero(), _reduced=True)
RF_ONE = RatFunc(dict(P.PONE), _reduced=True)


def add_terms(out: dict, terms, scale=None) -> None:
    """out[key] += scale * value for each (key, value) of terms, in a dict
    of nonzero coefficients: a key whose sum is zero is dropped.

    The one accumulate-and-drop-zero helper: every sparse element
    (free-algebra polynomials, tensor elements, matrix and elimination
    rows) is accumulated through it, one call per piece.  No product by
    laurent.L_ONE is taken: a scale that is L_ONE, or None, adds the
    values as they are, and a value that is L_ONE adds the scale.  Any
    coefficient type of the tower works; a missing key stores the value
    itself, so its type is kept.
    """
    one = _laurent.L_ONE
    if scale is one:
        scale = None
    get = out.get
    for key, value in terms:
        if scale is not None:
            value = scale if value is one else value * scale
        old = get(key)
        if old is not None:
            value = old + value
        if not value.is_zero():
            out[key] = value
        elif old is not None:
            del out[key]


class LaurentSeries(namedtuple("LaurentSeries",
                               "variable min_degree coeffs truncation_order")):
    """Truncated Laurent expansion in one variable: an immutable value,
    equal to another with the same fields.

    coeffs[i] is the coefficient of variable**(min_degree + i); coefficients
    are free of the expansion variable, Laurent values, or RatFunc ones
    where the lowest coefficient of the denominator has several terms.  The
    series is exact through degree truncation_order inclusive and says
    nothing above it: every coefficient of degree at most truncation_order
    equals that of the full expansion, and coefficient() refuses any
    higher degree.  For a nonzero series coeffs[0] is nonzero; the zero
    series has empty coeffs and min_degree 0, also when the truncation
    cuts off below the valuation.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> RatFunc:
        if k > self.truncation_order:
            raise NotExpandable(f"coefficient {k} beyond truncation {self.truncation_order}")
        i = k - self.min_degree
        if i < 0 or i >= len(self.coeffs):
            return RF_ZERO
        return self.coeffs[i]

    def pole_order(self) -> int:
        if self.is_zero() or self.min_degree >= 0:
            return 0
        return -self.min_degree

    def pole_terms(self) -> list:
        """The lowest nonzero terms of negative degree, at most three, as
        [degree, text] pairs; empty when the series has no pole."""
        out = []
        for deg, c in enumerate(self.coeffs, self.min_degree):
            if deg >= 0 or len(out) == 3:
                break
            if not c.is_zero():
                out.append([deg, str(c)])
        return out


def series_mul(a: list, b: list, terms: int) -> list:
    """Coefficients 0..terms of A*B for the power series A = sum a[i] x^i
    and B likewise; a list may stop early, its missing coefficients zero,
    and zero ones are skipped."""
    from .laurent import L_ZERO  # laurent.py builds on RatFunc

    out = []
    for t in range(terms + 1):
        acc = L_ZERO
        for i in range(min(t, len(a) - 1) + 1):
            if a[i] and t - i < len(b):
                acc = acc + a[i] * b[t - i]
        out.append(acc)
    return out


def series_inverse(a: list, terms: int) -> list:
    """Coefficients 0..terms of 1/A for the power series A of series_mul,
    a[0] nonzero: e_0 = 1/a_0 and e_t = -e_0 * sum_{j=1..t} a_j e_(t-j).
    Every e_t is built from the exact a_0..a_t, so the inverse of a series
    known through relative degree terms is known as far."""
    from .laurent import L_ZERO

    inv0 = a[0].inverse()
    e = [inv0]
    for t in range(1, terms + 1):
        acc = L_ZERO
        for j in range(1, min(t, len(a) - 1) + 1):
            if a[j]:
                acc = acc + a[j] * e[t - j]
        e.append(-inv0 * acc)
    return e


def laurent_expand(f, var, order: int = None) -> LaurentSeries:
    """Expand the tower value f as a Laurent series in var around 0, exact
    through order.

    The valuation is read exactly, from the lowest degrees in var of the
    numerator and the denominator.  Only the numerator and denominator
    coefficients that reach degree order are built (Laurent values), and
    the recurrence for 1/den (series_inverse) runs only that far, so a
    caller pays for exactly the degrees it reads.
    With order None the expansion runs through pole_order + 4.  When order
    cuts off below the valuation, the result is the empty series: exact
    through the truncation, no visible terms.  1/den is expanded from the
    inverse of its lowest nonzero coefficient in var, so a nonzero f never
    divides by zero here.  contraction expands each bound value of a
    schedule here, and a conjugated entry that is not a Laurent.
    """
    from .laurent import L_ZERO, Laurent

    f = RatFunc._coerce(f)
    if f.is_zero():
        o = 4 if order is None else order
        return LaurentSeries(var, 0, (), o)
    nu = P.as_univariate(f.num, var)
    du = P.as_univariate(f.den, var)
    a, b = min(nu), min(du)
    val = a - b
    if order is None:
        order = max(0, -val) + 4
    if order < val:
        return LaurentSeries(var, 0, (), order)
    # power series coefficients of num/den after factoring out the valuation;
    # those of degree above terms cannot reach the truncation order
    terms = order - val
    nn, dd = [L_ZERO] * (terms + 1), [L_ZERO] * (terms + 1)
    for series, u, low in ((nn, nu, a), (dd, du, b)):
        for i, c in u.items():
            if i - low <= terms:
                series[i - low] = Laurent.of(c)
    coeffs = series_mul(nn, series_inverse(dd, terms), terms)
    return LaurentSeries(var, val, tuple(coeffs), order)


def limit_at_zero(series: LaurentSeries) -> RatFunc:
    """Limit as the series variable goes to 0.

    series must be exact through degree 0 or beyond.  Raises PoleError,
    with the series' pole_terms() as diagnostics, when negative powers
    survive, and NotExpandable for a series truncated below degree 0,
    whose constant term is unknown.
    """
    if series.truncation_order < 0:
        raise NotExpandable(
            f"limit needs the series through degree 0, not {series.truncation_order}")
    poles = series.pole_terms()
    if poles:
        raise PoleError(f"pole of order {series.pole_order()} in {series.variable}",
                        diagnostics=poles)
    return series.coefficient(0)


# laurent.py builds on RatFunc, so it comes last; add_terms reads L_ONE
# when called.
from . import laurent as _laurent  # noqa: E402
