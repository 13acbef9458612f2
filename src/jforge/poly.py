"""Exact sparse multivariate polynomials over the rationals.

Representation:

    Monomial = tuple[tuple[str, int], ...]   # ((var, exp), ...), sorted by var, exp >= 1
    Poly     = dict[Monomial, Fraction]      # no zero coefficients, () is the unit monomial

The zero polynomial is the empty dict.  All functions treat their inputs as
immutable and return fresh dicts, so values can be shared freely and used as
building blocks for hashable wrappers.

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


def _pgcd_list(polys: Iterable[Poly]) -> Poly:
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
    images = []
    for p in (a, b):
        u: dict = {}
        for m, c in p.items():
            if c.denominator % _PRIME == 0:
                return None
            x = c.numerator * pow(c.denominator, -1, _PRIME)
            e = 0
            for vv, ee in m:
                if vv == v:
                    e = ee
                else:
                    x = x * pow(point[vv], ee, _PRIME)
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
    live = _gcd_variables(a, b)
    if not live:
        return dict(PONE)
    if live != pvars(a) | pvars(b):
        # the gcd lies in Q[live], so it is the gcd of the coefficients of
        # a and b as polynomials in the other variables
        parts: dict = {}
        for i, p in enumerate((a, b)):
            for m, c in p.items():
                key = (i, tuple(ve for ve in m if ve[0] not in live))
                part = parts.setdefault(key, {})
                part[tuple(ve for ve in m if ve[0] in live)] = c
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
