"""Exact sparse multivariate polynomials over the rationals, on packed monomials.

Representation:

    Poly = dict[int, int | Fraction]   # packed monomial -> nonzero coefficient

The zero polynomial is the empty dict and 0 is the unit monomial.  A
coefficient is an int when it is integral and a Fraction otherwise.  All
functions treat their inputs as immutable and return fresh dicts, so values
can be shared freely and used as building blocks for hashable wrappers.

A packed monomial is one int, sum of e_v * 2^(SLOT_BITS * slot(v)).  Slots
come from one process-wide registry in first-use order, so a product of
monomials is one integer addition.  Two ranges share the encoding:

* a polynomial here (a RatFunc numerator or denominator) has exponents in
  [0, 2^(SLOT_BITS-1)): the top bit of every slot is clear;
* a laurent.Laurent has signed exponents in [-2^(SLOT_BITS-2),
  2^(SLOT_BITS-2)): adding the registered bias 2^(SLOT_BITS-2) to every
  slot maps them into [0, 2^(SLOT_BITS-1)), the top bit clear again.

Overflow guard (Monagan and Pearce, "Sparse polynomial division using a
heap", JSC 2011): after a product or an inverse, the lowest slot that left
its range, biased or not, has its top bit set.  One mask test therefore
decides the range exactly, and DegreeOverflow is raised instead of
wrapping.  Likewise one mask decides whether a monomial divides another.

Nothing that reaches text or a gcd's sign depends on the registry's order:
plt, pstr and pint_normalize order monomials by graded lex on the variable
names (_glex), and pgcd picks its main variable by name.

The only nontrivial algorithm here is pgcd.  It first bounds the gcd's
degree in each variable by the gcd of images in GF(p)[v], every other
variable set to a fixed point: a coprime pair, the common case, ends there,
and a gcd free of some variables is the gcd of the coefficients over them.
Otherwise the polynomials are viewed as univariate in the alphabetically
first variable with polynomial coefficients, contents are split off, and
the subresultant remainder sequence runs on the primitive parts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import DegreeOverflow, DivisionByZero

Poly = dict

F1 = Fraction(1)

SLOT_BITS = 16
_HALF = 1 << (SLOT_BITS - 2)
_TOP = 1 << (SLOT_BITS - 1)
_MASK = (1 << SLOT_BITS) - 1

_NAMES: list = []     # slot -> variable name
_SLOTS: dict = {}     # variable name -> slot
_BY_NAME: list = []   # (name, shift) of every registered variable, by name
_BIAS = 0             # _HALF in every registered slot
_GUARD = 0            # the top bit of every registered slot


def _slot(name: str) -> int:
    global _BIAS, _GUARD
    i = _SLOTS.get(name)
    if i is None:
        i = _SLOTS[name] = len(_NAMES)
        _NAMES.append(name)
        _BIAS |= _HALF << (SLOT_BITS * i)
        _GUARD |= _TOP << (SLOT_BITS * i)
        _BY_NAME[:] = sorted((v, SLOT_BITS * j) for j, v in enumerate(_NAMES))
    return i


def _overflow(signed: bool):
    if signed:
        raise DegreeOverflow(
            f"Laurent exponent outside the packed range [-{_HALF}, {_HALF})")
    raise DegreeOverflow(f"polynomial exponent outside the packed range [0, {_TOP})")


def split_monomial(m: int, names) -> tuple:
    """([exponent of each of names in m], the packed m without them); the
    exponents may be negative."""
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


def _glex(m: int) -> tuple:
    """Graded lexicographic key of a monomial, variables ordered by name."""
    exps = [(m >> s) & _MASK for _, s in _BY_NAME]
    return sum(exps), exps


def pzero() -> Poly:
    return {}


def pconst(c) -> Poly:
    c = _coef(Fraction(c))
    return {0: c} if c else {}


def pvar(name: str, exp: int = 1) -> Poly:
    if exp < 0:
        raise ValueError("monomials carry nonnegative exponents only")
    if exp >= _TOP:
        _overflow(False)
    return {exp << (SLOT_BITS * _slot(name)): 1}


PONE: Poly = {0: 1}


def pis_zero(p: Poly) -> bool:
    return not p


def pis_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and 0 in p)


def pvars(p: Poly) -> set:
    """The variables of p, negative exponents (a Laurent's) included."""
    seen = 0
    for m in p:
        seen |= (m + _BIAS) ^ _BIAS
    return {v for v, s in _BY_NAME if (seen >> s) & _MASK}


def pexponents(p: Poly, v: str) -> list:
    """The exponent of v in each monomial of p."""
    i = _SLOTS.get(v)
    if i is None:
        return [0] * len(p)
    s = SLOT_BITS * i
    return [(m >> s) & _MASK for m in p]


def padd(a: Poly, b: Poly) -> Poly:
    """a + b: the one sum loop, shared with Laurent.__add__."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for m, c in b.items():
        old = out.get(m)
        if old is None:
            out[m] = c
        else:
            c += old
            if c:
                out[m] = c if type(c) is int else _coef(c)
            else:
                del out[m]
    return out


def pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pscale(a: Poly, c) -> Poly:
    if not c:
        return {}
    return {m: _coef(cc * c) for m, cc in a.items()}


def pmul(a: Poly, b: Poly, bias: int = 0) -> Poly:
    """a * b: the one product loop, shared with Laurent.__mul__, which
    passes the registered bias for its signed exponents."""
    if not a or not b:
        return {}
    # multiply by the smaller operand for fewer dict passes
    if len(a) > len(b):
        a, b = b, a
    guard = _GUARD
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            if (m + bias) & guard:
                _overflow(bool(bias))
            c = ca * cb
            old = out.get(m)
            if old is not None:
                c = old + c
                if not c:
                    del out[m]
                    continue
            out[m] = c if type(c) is int else _coef(c)
    return out


def ppow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative power of a polynomial; use the field layer")
    out = dict(PONE)
    base = a
    while n:
        if n & 1:
            out = pmul(out, base)
        base = pmul(base, base) if n > 1 else base
        n >>= 1
    return out


def plt(p: Poly):
    """Leading (monomial, coefficient) under graded lex (_glex)."""
    m = max(p, key=_glex)
    return m, p[m]


def _divides(q: int) -> bool:
    """The difference q of two monomials has no negative exponent."""
    return (q + _GUARD) & _GUARD == _GUARD


def pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b; raises ValueError when b does not divide a.

    A one-term divisor c*x^e divides term by term: every monomial of a must
    be a multiple of x^e.  Longer divisors run graded-lex long division.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return {}
    if len(b) == 1:
        (bm, bc), = b.items()
        q = {m - bm: c for m, c in a.items()}
        if not all(map(_divides, q)):
            raise ValueError("inexact polynomial division")
        return q if bc == 1 else pscale(q, F1 / bc)
    bm, bc = plt(b)
    q: Poly = {}
    r = dict(a)
    while r:
        rm, rc = plt(r)
        qm = rm - bm
        if not _divides(qm):
            raise ValueError("inexact polynomial division")
        qc = Fraction(rc) / bc
        q[qm] = q.get(qm, 0) + qc
        for m, c in b.items():
            mm = m + qm
            nc = r.get(mm, 0) - qc * c
            if nc:
                r[mm] = nc
            else:
                r.pop(mm, None)
    return {m: _coef(c) for m, c in q.items() if c}


def pcommon_monomial(monomials) -> int:
    """The lowest exponent of each variable over monomials (a Poly's keys,
    or a list), negative ones included: the largest monomial dividing every
    one of them, their monomial content."""
    out = 0
    for _, s in _BY_NAME:
        out += (min(((m + _BIAS) >> s) & _MASK for m in monomials) - _HALF) << s
    return out


def _content_scale(coeffs) -> Fraction:
    """Positive scale taking nonzero rationals to coprime integers."""
    num_gcd = 0
    den_lcm = 1
    for c in coeffs:
        num_gcd = int_gcd(num_gcd, c.numerator)
        den_lcm = den_lcm // int_gcd(den_lcm, c.denominator) * c.denominator
    return Fraction(den_lcm, num_gcd)


def pint_normalize(p: Poly) -> tuple:
    """Scale p to integer coefficients with content 1 and positive lead.

    Returns (normalized, scale) with normalized == p * scale and scale > 0
    or scale < 0 when the sign flip is needed for a positive leading
    coefficient.  The zero polynomial normalizes to itself with scale 1; a
    single term c*x^e normalizes to x^e with scale 1/c.
    """
    if not p:
        return {}, F1
    if len(p) == 1:
        (m, c), = p.items()
        return {m: 1}, F1 / c
    scale = _content_scale(p.values())
    if plt(p)[1] < 0:
        scale = -scale
    return {m: _coef(c * scale) for m, c in p.items()}, scale


def as_univariate(p: Poly, v: str) -> dict:
    """View p as a univariate polynomial in v: {exp: coefficient Poly}."""
    s = SLOT_BITS * _slot(v)
    out: dict = {}
    for m, c in p.items():
        e = (m >> s) & _MASK
        out.setdefault(e, {})[m - (e << s)] = c
    return out


def from_univariate(u: dict, v: str) -> Poly:
    """The Poly of {exp: coefficient Poly free of v}."""
    s = SLOT_BITS * _slot(v)
    return {m + (e << s): c for e, coeff in u.items() for m, c in coeff.items()}


def _uprem(f: dict, g: dict) -> dict:
    """Pseudo remainder lc(g)^(deg f - deg g + 1) * f mod g of
    univariate-with-Poly-coefficient dicts, deg f >= deg g."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    steps = max(f) - dg + 1
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        nr: dict = {}
        for d, c in r.items():
            if d != dr:
                nr[d] = pmul(c, lg)
        for d, c in g.items():
            if d != dg:
                t = d + dr - dg
                nr[t] = psub(nr.get(t, {}), pmul(c, lr))
        r = {d: c for d, c in nr.items() if c}
        steps -= 1
    if r and steps:
        scale = ppow(lg, steps)
        r = {d: pmul(c, scale) for d, c in r.items()}
    return r


def _pgcd_list(polys) -> Poly:
    out: Poly = {}
    for p in polys:
        out = pgcd(out, p)
        if out == PONE:
            break
    return out


_PRIME = 2_147_483_647  # 2^31 - 1: images of the gcd bound are taken mod this


def _image_degree(a: Poly, b: Poly, v: str, point: dict):
    """Degree of gcd(a, b) mod _PRIME with every variable but v set to
    point, or None when a leading coefficient in v vanishes there.

    The gcd of a and b divides both, and its leading coefficient in v
    divides theirs, so its degree in v is at most this image's degree.
    """
    s = SLOT_BITS * _slot(v)
    others = [(SLOT_BITS * _slot(u), x) for u, x in point.items() if u != v]
    images = []
    for p in (a, b):
        u: dict = {}
        for m, c in p.items():
            if c.denominator % _PRIME == 0:
                return None
            x = c.numerator * pow(c.denominator, -1, _PRIME)
            for t, value in others:
                e = (m >> t) & _MASK
                if e:
                    x = x * pow(value, e, _PRIME)
            e = (m >> s) & _MASK
            u[e] = (u.get(e, 0) + x) % _PRIME
        top = max(u)
        if not u[top]:
            return None
        images.append([u.get(d, 0) for d in range(top + 1)])
    f, g = images
    while g:
        # f := f mod g, coefficients low to high, g's lead nonzero
        inv = pow(g[-1], -1, _PRIME)
        while len(f) >= len(g):
            q = f[-1] * inv % _PRIME
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % _PRIME
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _gcd_variables(a: Poly, b: Poly) -> set:
    """The variables that can occur in gcd(a, b): those of both a and b
    whose bound from _image_degree, at two fixed points, is not 0."""
    names = sorted(pvars(a) | pvars(b))
    out = set()
    for v in sorted(pvars(a) & pvars(b)):
        for seed in (1, 2):
            point = {u: pow(7919 * seed + 104729 * i, 3, _PRIME) + 2
                     for i, u in enumerate(names)}
            d = _image_degree(a, b, v, point)
            if d is not None:
                break
        if d != 0:
            out.add(v)
    return out


def pgcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with integer coefficients and positive lead."""
    if not a:
        return pint_normalize(b)[0]
    if not b:
        return pint_normalize(a)[0]
    if a == b:
        return pint_normalize(a)[0]
    if pis_const(a) or pis_const(b):
        return dict(PONE)
    mc = pcommon_monomial([*a, *b])
    if len(a) == 1 or len(b) == 1:
        return {mc: 1}
    if mc:
        # strip the shared monomial factor up front; it rejoins at the end
        inner = pgcd({m - mc: c for m, c in a.items()}, {m - mc: c for m, c in b.items()})
        return {m + mc: c for m, c in inner.items()}
    live = _gcd_variables(a, b)
    if not live:
        return dict(PONE)
    if live != pvars(a) | pvars(b):
        # the gcd lies in Q[live], so it is the gcd of the coefficients of
        # a and b as polynomials in the other variables
        keep = sum(_MASK << (SLOT_BITS * _slot(v)) for v in live)
        parts: dict = {}
        for i, p in enumerate((a, b)):
            for m, c in p.items():
                parts.setdefault((i, m & ~keep), {})[m & keep] = c
        return _pgcd_list(parts.values())
    v = min(live)
    au = as_univariate(a, v)
    bu = as_univariate(b, v)
    cont_a = _pgcd_list(au.values())
    cont_b = _pgcd_list(bu.values())
    cont = pgcd(cont_a, cont_b)
    fa = {e: pdiv_exact(c, cont_a) for e, c in au.items()}
    fb = {e: pdiv_exact(c, cont_b) for e, c in bu.items()}
    f, g = (fa, fb) if max(fa) >= max(fb) else (fb, fa)
    # subresultant remainder sequence: each remainder is divided by a
    # factor known in advance, so no content is taken until the end
    lead = step = PONE
    while True:
        delta = max(f) - max(g)
        r = _uprem(f, g)
        if not r:
            break
        div = pmul(lead, ppow(step, delta))
        f, g = g, {e: pdiv_exact(c, div) for e, c in r.items()}
        lead = f[max(f)]
        if delta:
            step = pdiv_exact(ppow(lead, delta), ppow(step, delta - 1))
    content = _pgcd_list(g.values())
    f = {e: pdiv_exact(c, content) for e, c in g.items()}
    prim = from_univariate(f, v)
    out = pmul(cont, prim)
    return pint_normalize(out)[0]


def pstr(p: Poly) -> str:
    """Canonical text for a polynomial: terms sorted, explicit operators."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=_glex, reverse=True):
        c = p[m]
        factors = []
        if abs(c) != 1 or not m:
            num = str(abs(c.numerator)) if c.denominator == 1 else f"{abs(c.numerator)}/{c.denominator}"
            factors.append(num)
        for v, s in _BY_NAME:
            e = (m >> s) & _MASK
            if e:
                factors.append(v if e == 1 else f"{v}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
