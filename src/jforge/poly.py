"""Exact sparse multivariate polynomials over the rationals.

Representation:

    Monomial = tuple[tuple[str, int], ...]   # ((var, exp), ...), sorted by var, exp >= 1
    Poly     = dict[Monomial, Fraction]      # no zero coefficients, () is the unit monomial

The zero polynomial is the empty dict.  All functions treat their inputs as
immutable and return fresh dicts, so values can be shared freely and used as
building blocks for hashable wrappers.

The only nontrivial algorithm here is the primitive polynomial remainder
sequence used by pgcd.  Polynomials are viewed recursively as univariate in
the alphabetically first variable with polynomial coefficients; contents are
split off and the PRS runs on the primitive parts.  Degrees and variable
counts in this project are small, so the classical algorithm is adequate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import Iterable

from .errors import DivisionByZero

Monomial = tuple
Poly = dict

F0 = Fraction(0)
F1 = Fraction(1)

MONO_ONE: Monomial = ()


def pzero() -> Poly:
    return {}


def pconst(c) -> Poly:
    c = Fraction(c)
    return {MONO_ONE: c} if c else {}


def pvar(name: str, exp: int = 1) -> Poly:
    if exp < 0:
        raise ValueError("monomials carry nonnegative exponents only")
    if exp == 0:
        return pconst(1)
    return {((name, exp),): F1}


PONE: Poly = {MONO_ONE: F1}


def pis_zero(p: Poly) -> bool:
    return not p


def pis_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and MONO_ONE in p)


def pvars(p: Poly) -> set:
    out = set()
    for m in p:
        for v, _ in m:
            out.add(v)
    return out


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_div(m1: Monomial, m2: Monomial):
    """m1 / m2, or None when m2 does not divide m1."""
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        r = d.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            d.pop(v, None)
        else:
            d[v] = r
    return tuple(sorted(d.items()))


def mono_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    d2 = dict(m2)
    out = []
    for v, e in m1:
        e2 = d2.get(v, 0)
        if e2:
            out.append((v, min(e, e2)))
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_key(m: Monomial, varseq: tuple) -> tuple:
    """Graded lexicographic key of a monomial relative to a variable order."""
    exps = dict(m)
    return (mono_degree(m), tuple(exps.get(v, 0) for v in varseq))


def padd(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, F0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def psub(a: Poly, b: Poly) -> Poly:
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, F0) - c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def pscale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: cc * c for m, cc in a.items()}


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    # multiply by the smaller operand for fewer dict passes
    if len(a) > len(b):
        a, b = b, a
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            nc = out.get(m, F0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
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


def plt(p: Poly, varseq: tuple):
    """Leading (monomial, coefficient) under graded lex for varseq."""
    m = max(p, key=lambda mm: mono_key(mm, varseq))
    return m, p[m]


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
        q = {}
        for m, c in a.items():
            qm = mono_div(m, bm)
            if qm is None:
                raise ValueError("inexact polynomial division")
            q[qm] = c
        return q if bc == 1 else pscale(q, F1 / bc)
    varseq = tuple(sorted(pvars(a) | pvars(b)))
    bm, bc = plt(b, varseq)
    q: Poly = {}
    r = dict(a)
    while r:
        rm, rc = plt(r, varseq)
        qm = mono_div(rm, bm)
        if qm is None:
            raise ValueError("inexact polynomial division")
        qc = rc / bc
        q[qm] = q.get(qm, F0) + qc
        for m, c in b.items():
            mm = mono_mul(m, qm)
            nc = r.get(mm, F0) - qc * c
            if nc:
                r[mm] = nc
            else:
                r.pop(mm, None)
    return {m: c for m, c in q.items() if c}


def pcommon_monomial(p: Poly) -> Monomial:
    """Largest monomial dividing every term of p (the monomial content)."""
    it = iter(p)
    out = next(it)
    for m in it:
        out = mono_gcd(out, m)
        if not out:
            break
    return out


def _content_scale(coeffs: Iterable) -> Fraction:
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
        return {m: F1}, F1 / c
    scale = _content_scale(p.values())
    varseq = tuple(sorted(pvars(p)))
    _, lead = plt(p, varseq)
    if lead < 0:
        scale = -scale
    return {m: c * scale for m, c in p.items()}, scale


def as_univariate(p: Poly, v: str) -> dict:
    """View p as a univariate polynomial in v: {exp: coefficient Poly}."""
    out: dict = {}
    for m, c in p.items():
        e = 0
        rest = []
        for vv, ee in m:
            if vv == v:
                e = ee
            else:
                rest.append((vv, ee))
        coeff = out.setdefault(e, {})
        coeff[tuple(rest)] = coeff.get(tuple(rest), F0) + c
    res: dict = {}
    for e, q in out.items():
        qq = {m: c for m, c in q.items() if c}
        if qq:
            res[e] = qq
    return res


def from_univariate(u: dict, v: str) -> Poly:
    out: Poly = {}
    for e, coeff in u.items():
        ve = pvar(v, e) if e else PONE
        out = padd(out, pmul(ve, coeff))
    return out


def _uprem(f: dict, g: dict) -> dict:
    """Pseudo remainder of univariate-with-Poly-coefficient dicts."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
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
    return r


def _pgcd_list(polys: Iterable[Poly]) -> Poly:
    out: Poly = {}
    for p in polys:
        out = pgcd(out, p)
        if out == PONE:
            break
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
    if len(a) == 1 or len(b) == 1:
        m = mono_gcd(pcommon_monomial(a), pcommon_monomial(b))
        return {m: F1}
    mc = mono_gcd(pcommon_monomial(a), pcommon_monomial(b))
    if mc:
        # strip the shared monomial factor up front; it rejoins at the end
        a = {mono_div(m, mc): c for m, c in a.items()}
        b = {mono_div(m, mc): c for m, c in b.items()}
        inner = pgcd(a, b)
        return {mono_mul(m, mc): c for m, c in inner.items()}
    v = sorted(pvars(a) | pvars(b))[0]
    au = as_univariate(a, v)
    bu = as_univariate(b, v)
    cont_a = _pgcd_list(au.values())
    cont_b = _pgcd_list(bu.values())
    cont = pgcd(cont_a, cont_b)
    fa = {e: pdiv_exact(c, cont_a) for e, c in au.items()}
    fb = {e: pdiv_exact(c, cont_b) for e, c in bu.items()}
    f, g = (fa, fb) if max(fa) >= max(fb) else (fb, fa)
    while g:
        r = _uprem(f, g)
        if r:
            # strip the polynomial and then the rational content; left in,
            # the coefficients grow exponentially with the degree
            rc = _pgcd_list(r.values())
            r = {e: pdiv_exact(c, rc) for e, c in r.items()}
            s = _content_scale(c for cc in r.values() for c in cc.values())
            r = {e: pscale(c, s) for e, c in r.items()}
        f, g = g, r
    prim = from_univariate(f, v)
    out = pmul(cont, prim)
    return pint_normalize(out)[0]


def pstr(p: Poly) -> str:
    """Canonical text for a polynomial: terms sorted, explicit operators."""
    if not p:
        return "0"
    varseq = tuple(sorted(pvars(p)))
    items = sorted(p.items(), key=lambda mc: mono_key(mc[0], varseq), reverse=True)
    parts = []
    for m, c in items:
        factors = []
        if abs(c) != 1 or not m:
            num = str(abs(c.numerator)) if c.denominator == 1 else f"{abs(c.numerator)}/{c.denominator}"
            factors.append(num)
        for v, e in m:
            factors.append(v if e == 1 else f"{v}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
