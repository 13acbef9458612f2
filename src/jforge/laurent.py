"""Laurent polynomials over Q on packed exponent vectors.

Every value this project builds in Q[params^±1] is a Laurent: the
R-matrices and twists of rmat.py with everything linalg computes from them
(conjugates, Yang-Baxter products, inverses of unipotent twists), the
coefficients of field.laurent_expand, and every coefficient on the algebra
side of the rewriting, in Q[m,n,k,p^±1].  A Laurent value holds one as a
dict from a packed monomial to a nonzero coefficient:

* the packed monomial is one int, sum of e_v * 2^(SLOT_BITS * slot(v)),
  with signed exponents e_v in [-2^(SLOT_BITS-2), 2^(SLOT_BITS-2)); slots
  come from a process-wide registry in first-use order, so a product of
  monomials is one integer addition and no gcd is ever needed;
* a coefficient is an int when it is integral and a Fraction otherwise.

Overflow guard (Monagan and Pearce, "Sparse polynomial division using a
heap", JSC 2011): adding the registered bias 2^(SLOT_BITS-2) to every
slot maps an in-range exponent into [0, 2^(SLOT_BITS-1)), so the top bit
of every slot is clear; the lowest slot that left the range, by a product
or an inverse, has its top bit set.  One mask test after each monomial
operation therefore decides the range exactly, and DegreeOverflow is
raised instead of wrapping.

Laurent and RatFunc form one numeric tower, as int and Fraction do, under
one promotion rule: Laurent op Laurent stays Laurent (+, -, *, negation,
inverse of a single term), and a Laurent with any other operand (RatFunc,
int, Fraction) goes through the cached to_rf(), equality included.  The
inverse of several terms is a RatFunc; hash(x) == hash(x.to_rf()).
coerce() converts where a value enters the algebra: rtt._rf, rtt_entries,
RewriteRule, nc_scale and Substitution.  A RatFunc with a one-term
denominator becomes Laurent, any other stays a RatFunc.  from_poly
converts a polynomial of poly.py, as laurent_expand does with the
coefficients of its numerator and denominator.

Substitution is the one map that puts bound values into Laurent values:
TensorMat.substitute, the read-off route of jforge.specialize and hopf's
m = n collapse all use it.  RatFunc.substitute stays the map for RatFunc
values (parsed text, the schedule), and a Substitution whose bound factor
is not a Laurent goes through to_rf() to it.  The contraction puts a
schedule's series in place of the bound variables itself, one packed
monomial at a time (split_monomial).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeOverflow, DivisionByZero
from .field import RatFunc

SLOT_BITS = 16
_HALF = 1 << (SLOT_BITS - 2)
_MASK = (1 << SLOT_BITS) - 1

_NAMES: list = []   # slot -> variable name
_SLOTS: dict = {}   # variable name -> slot
_BIAS = 0           # _HALF in every registered slot
_GUARD = 0          # the top bit of every registered slot


def _slot(name: str) -> int:
    global _BIAS, _GUARD
    i = _SLOTS.get(name)
    if i is None:
        i = _SLOTS[name] = len(_NAMES)
        _NAMES.append(name)
        _BIAS |= _HALF << (SLOT_BITS * i)
        _GUARD |= (1 << (SLOT_BITS - 1)) << (SLOT_BITS * i)
    return i


def _overflow():
    raise DegreeOverflow(
        f"Laurent exponent outside the packed range [-{_HALF}, {_HALF})")


def _pack(exps) -> int:
    """The packed monomial of (name, exponent) pairs."""
    m = 0
    for v, e in exps:
        if not -_HALF <= e < _HALF:
            _overflow()
        m += e << (SLOT_BITS * _slot(v))
    return m


def _unpack(m: int) -> dict:
    """{name: exponent} of a packed monomial, zero exponents left out."""
    out = {}
    i = 0
    while m:
        e = m & _MASK
        if e >= 1 << (SLOT_BITS - 1):
            e -= 1 << SLOT_BITS
        if e:
            out[_NAMES[i]] = e
        m = (m - e) >> SLOT_BITS
        i += 1
    return out


def split_monomial(m: int, names) -> tuple:
    """([exponent of each of names in m], the packed m without them)."""
    shifts = [SLOT_BITS * _slot(v) for v in names]  # registers before _BIAS is read
    biased = m + _BIAS
    exps = []
    for shift in shifts:
        e = ((biased >> shift) & _MASK) - _HALF
        exps.append(e)
        m -= e << shift
    return exps, m


def _coef(c):
    """A rational coefficient in canonical form: int when integral."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class Laurent:
    """Immutable Laurent polynomial: {packed monomial: nonzero coefficient}."""

    __slots__ = ("terms", "_rf")

    def __init__(self, terms: dict):
        self.terms = terms
        self._rf = None

    @staticmethod
    def const(c) -> "Laurent":
        c = _coef(c)
        return Laurent({0: c}) if c else L_ZERO

    @staticmethod
    def var(name: str) -> "Laurent":
        return Laurent({_pack(((name, 1),)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def variables(self) -> set:
        return {v for m in self.terms for v in _unpack(m)}

    def to_rf(self) -> RatFunc:
        """The same value as a canonical RatFunc (computed once)."""
        rf = self._rf
        if rf is None:
            terms = [(_unpack(m), c) for m, c in self.terms.items()]
            names = {v for exps, _ in terms for v in exps}
            shift = {}
            for v in names:
                low = min(exps.get(v, 0) for exps, _ in terms)
                if low < 0:
                    shift[v] = -low
            num = {}
            for exps, c in terms:
                for v, s in shift.items():
                    exps[v] = exps.get(v, 0) + s
                num[tuple(sorted((v, e) for v, e in exps.items() if e))] = Fraction(c)
            # canonical as it stands: every shifted variable is missing from
            # some term of num, so num and the monomial share no factor
            rf = self._rf = RatFunc(num, {tuple(sorted(shift.items())): Fraction(1)},
                                    _reduced=True)
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
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            old = out.get(m)
            if old is None:
                out[m] = c
            else:
                c = old + c
                if c:
                    out[m] = _coef(c)
                else:
                    del out[m]
        return Laurent(out) if out else L_ZERO

    __radd__ = __add__

    def __neg__(self):
        return Laurent({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not Laurent:
            return self.to_rf() * other
        a, b = self.terms, other.terms
        if not a or not b:
            return L_ZERO
        if len(a) > len(b):
            a, b = b, a
        bias, guard = _BIAS, _GUARD
        if len(a) == 1:
            # one term times b: the monomials stay distinct, nothing cancels
            (ma, ca), = a.items()
            # the unit's coefficient is the int 1 (coefficients are int
            # when integral), so no Fraction comparison runs here
            if ma == 0 and type(ca) is int and ca == 1:
                return self if b is self.terms else other
            if len(b) == 1:
                (mb, cb), = b.items()
                if mb == 0 and type(cb) is int and cb == 1:
                    return self if a is self.terms else other
            out = {}
            for mb, cb in b.items():
                m = ma + mb
                if (m + bias) & guard:
                    _overflow()
                c = ca * cb
                out[m] = c if type(c) is int else _coef(c)
            return Laurent(out)
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if (m + bias) & guard:
                    _overflow()
                c = ca * cb
                old = out.get(m)
                if old is not None:
                    c = old + c
                    if not c:
                        del out[m]
                        continue
                out[m] = c if type(c) is int else _coef(c)
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
        if (m + _BIAS) & _GUARD:
            _overflow()
        return Laurent({m: c if c == 1 or c == -1 else _coef(1 / Fraction(c))})

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
        self._slots = [(SLOT_BITS * _slot(name), v) for name, v in values.items()]
        self._split = {}

    def _monomial(self, m: int) -> tuple:
        """(product of the bound factors, packed unbound rest) of m."""
        hit = self._split.get(m)
        if hit is None:
            factor, rest, biased = Fraction(1) if self._point else L_ONE, m, m + _BIAS
            for shift, value in self._slots:
                e = ((biased >> shift) & _MASK) - _HALF
                if e:
                    if e < 0 and not value:
                        raise DivisionByZero("substitution sends denominator to zero")
                    factor *= value ** e
                    rest -= e << shift
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
    RatFunc becomes Laurent exactly when its denominator is one term, and
    any other RatFunc is returned unchanged.
    """
    if type(x) is Laurent:
        return x
    if isinstance(x, RatFunc):
        if len(x.den) != 1:
            return x
        (dm, dc), = x.den.items()
        return from_poly(x.num, dm, dc)
    if isinstance(x, (int, Fraction)):
        return Laurent.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as a coefficient")


def from_poly(p: dict, mono: tuple = (), c=1) -> Laurent:
    """The Laurent value p / (c * x^mono) of a polynomial p of poly.py."""
    inv = {v: -e for v, e in mono}
    out = {}
    for nm, nc in p.items():
        exps = dict(inv)
        for v, e in nm:
            exps[v] = exps.get(v, 0) + e
        out[_pack(exps.items())] = _coef(nc / c)
    return Laurent(out) if out else L_ZERO
