"""Coalgebra layer over the derived presentation, plus the quotient checks.

The matrix coproduct sends a grid generator t_ij to sum_k t_ik (x) t_kj
and the counit to the identity pattern; both extend multiplicatively to
words.  On that footing the module verifies, relation by relation, that
the coproduct and counit are algebra maps, that the span of monomials
touching the row-vector generators is a two-sided co-ideal stable under
the antipode, that the antipode axiom holds at every grid position of the
quotient, that the total determinant is group-like with counit one, and
that the plane relation is covariant under the coaction precisely when
the cross-relation braiding is kept.

All checks reduce claims to zero through the rewrite systems; nothing is
asserted structurally except the formal coassociativity and counit axioms
on generators, which hold by the shape of the matrix coproduct.
"""

from __future__ import annotations

from .errors import MissingInverse
from .freealg import (
    NCPoly,
    RewriteRule,
    RewriteSystem,
    nc_add,
    nc_gen,
    nc_is_zero,
    nc_mul,
    nc_one,
    nc_product,
    nc_scale,
    nc_str,
    nc_sub,
    nc_substitute_params,
    nc_word,
    nc_zero,
    t_mul,
    t_simple,
    t_str,
    tensor_normal_form,
    word_touches,
)
from .grammar import parse
from .laurent import L_ONE, L_ZERO
from .report import CheckReport
from .rtt import (
    BLOCK,
    COLUMN,
    LAYOUT_3,
    LETTERS,
    ROW_VECTOR,
    DerivedAlgebra,
    QuotientAlgebra,
    _rf,
)

# Quotient grid: the row vector is projected away, the corner survives.
LAYOUT_Q = (("f", None, None), ("x", "a", "b"), ("y", "c", "d"))

# Counit pattern: grid diagonal and every adjoined inverse count as one.
_EPS_ONE = frozenset({"f", "a", "d", "f_inv", "delta_inv", "e", "xi"})


# -- coproduct and counit --------------------------------------------------------

def _grid_position(g, layout):
    for i, row in enumerate(layout):
        for j, name in enumerate(row):
            if name == g:
                return i, j
    raise ValueError(f"{g!r} is not a grid generator of this layout")


def coproduct(g: str, layout=LAYOUT_3) -> dict:
    """Matrix coproduct of one grid generator as a tensor element."""
    i, j = _grid_position(g, layout)
    out = nc_zero()
    for k in range(len(layout)):
        left = layout[i][k]
        right = layout[k][j]
        if left is None or right is None:
            continue
        out = nc_add(out, t_simple(nc_gen(left), nc_gen(right)))
    return out


def coproduct_poly(p: NCPoly, layout=LAYOUT_3) -> dict:
    """Multiplicative extension of the coproduct to a polynomial."""
    out = nc_zero()
    for word, coeff in p.items():
        piece = t_simple(nc_one(), nc_one())
        for g in word:
            piece = t_mul(piece, coproduct(g, layout))
        out = nc_add(out, nc_scale(piece, coeff))
    return out


def counit(g: str):
    return L_ONE if g in _EPS_ONE else L_ZERO


def counit_poly(p: NCPoly):
    """Multiplicative extension of the counit to a polynomial."""
    total = L_ZERO
    for word, coeff in p.items():
        if all(g in _EPS_ONE for g in word):
            total = total + coeff
    return total


# -- bialgebra axioms ------------------------------------------------------------

def check_bialgebra(system: RewriteSystem, layout=LAYOUT_3) -> CheckReport:
    """Coproduct and counit are algebra maps; coalgebra axioms hold.

    Runs over every rule whose support lies in the grid letters of layout:
    the coproduct of lhs - rhs must reduce to zero leg by leg in the
    tensor square, and the counit of lhs - rhs must vanish.  The
    coassociativity and counit axioms on generators are formal identities
    of the matrix coproduct and are compared structurally.
    """
    letters = {g for row in layout for g in row if g is not None}
    report = CheckReport("bialgebra")
    checked = 0
    delta_bad = []
    eps_bad = []
    for rule in system.rule_list():
        support = set(rule.lhs)
        for w in rule.rhs:
            support |= set(w)
        if not support <= letters:
            continue
        checked += 1
        residual = nc_sub(nc_word(rule.lhs), rule.rhs)
        image = tensor_normal_form(coproduct_poly(residual, layout), system)
        if not nc_is_zero(image):
            delta_bad.append({"rule": rule.tag,
                              "image": t_str(image, system.generators)})
        if not system.value(counit_poly(residual)).is_zero():
            eps_bad.append({"rule": rule.tag})
    report.add("coproduct-is-algebra-map", not delta_bad,
               relations=checked, failures=delta_bad[:5])
    report.add("counit-is-algebra-map", not eps_bad,
               relations=checked, failures=eps_bad[:5])

    coassoc_ok = True
    counit_ok = True
    for g in sorted(letters):
        i, j = _grid_position(g, layout)
        dim = len(layout)
        left_way = {}
        right_way = {}
        for k in range(dim):
            for l in range(dim):
                a, b, c = layout[i][l], layout[l][k], layout[k][j]
                if a is not None and b is not None and c is not None:
                    left_way[(a, b, c)] = left_way.get((a, b, c), 0) + 1
                a, b, c = layout[i][k], layout[k][l], layout[l][j]
                if a is not None and b is not None and c is not None:
                    right_way[(a, b, c)] = right_way.get((a, b, c), 0) + 1
        coassoc_ok = coassoc_ok and left_way == right_way
        lhs = nc_zero()
        rhs = nc_zero()
        for k in range(dim):
            u, v = layout[i][k], layout[k][j]
            if u is None or v is None:
                continue
            lhs = nc_add(lhs, nc_gen(v, counit(u)))
            rhs = nc_add(rhs, nc_gen(u, counit(v)))
        counit_ok = counit_ok and lhs == nc_gen(g) and rhs == nc_gen(g)
    report.add("coassociativity", coassoc_ok, generators=len(letters))
    report.add("counit-axioms", counit_ok, generators=len(letters))
    return report


# -- the row-sector Hopf ideal ---------------------------------------------------

def quotient_project(p: NCPoly) -> NCPoly:
    """Kill every monomial touching the row-vector generators."""
    return {w: c for w, c in p.items() if not word_touches(w, ROW_VECTOR)}


def hopf_ideal_check(alg: DerivedAlgebra) -> CheckReport:
    """The span of monomials touching the row vector is a Hopf ideal.

    Three claims: closure under multiplication by every generator on both
    sides, co-ideal containment of the coproducts together with vanishing
    counit, and stability under the antipode images of the row-vector
    generators.
    """
    system = alg.system
    report = CheckReport("hopf-ideal")

    bad = []
    products = 0
    for g in LETTERS:
        for h in ROW_VECTOR:
            for poly in (nc_mul(nc_gen(g), nc_gen(h)),
                         nc_mul(nc_gen(h), nc_gen(g))):
                products += 1
                nf = system.normal_form(poly)
                stray = [w for w in nf if not word_touches(w, ROW_VECTOR)]
                if stray:
                    bad.append({"pair": [g, h], "stray": [list(w) for w in stray]})
    report.add("two-sided-ideal", not bad, products=products, failures=bad[:5])

    bad = []
    for h in ROW_VECTOR:
        image = tensor_normal_form(coproduct(h, LAYOUT_3), system)
        for (wl, wr) in image:
            if not (word_touches(wl, ROW_VECTOR) or word_touches(wr, ROW_VECTOR)):
                bad.append({"generator": h, "term": [list(wl), list(wr)]})
        if not counit(h).is_zero():
            bad.append({"generator": h, "counit": "nonzero"})
    report.add("co-ideal", not bad, failures=bad[:5])

    bad = []
    for h in ROW_VECTOR:
        nf = system.normal_form(antipode(h, alg))
        stray = [w for w in nf if not word_touches(w, ROW_VECTOR)]
        if stray:
            bad.append({"generator": h, "stray": [list(w) for w in stray]})
    report.add("antipode-stability", not bad, failures=bad[:5])
    return report


# -- antipode --------------------------------------------------------------------

def _require(system: RewriteSystem, names) -> None:
    for name in names:
        if name not in system.index or not any(
                name in rule.lhs for rule in system.rule_list()):
            raise MissingInverse(f"appended generator {name!r} is not available")


def _block_inv(alg) -> list:
    m = alg.block_inv
    if m is None:
        raise MissingInverse("block inverse was not solved")
    return m


def antipode(g: str, alg) -> NCPoly:
    """Antipode of one grid generator, full or quotient by algebra type.

    In the quotient the scale maps to its inverse, the column to the
    conjugated column and the block to the block inverse.  In the full
    algebra the Schur-complement inverse takes the scale's place and the
    row and mixed blocks pick up their sandwich corrections.
    """
    quotient = isinstance(alg, QuotientAlgebra)
    system = alg.system
    m = _block_inv(alg)
    if quotient:
        _require(system, ("f_inv", "delta_inv"))
        if g == "f":
            return nc_gen("f_inv")
        if g in COLUMN:
            i = COLUMN.index(g)
            row = nc_add(nc_mul(m[i][0], nc_gen(COLUMN[0])),
                         nc_mul(m[i][1], nc_gen(COLUMN[1])))
            return nc_scale(nc_mul(row, nc_gen("f_inv")), parse("-1"))
        for i in (0, 1):
            for j in (0, 1):
                if BLOCK[i][j] == g:
                    return m[i][j]
        raise ValueError(f"{g!r} is not a quotient grid generator")
    _require(system, ("e", "delta_inv"))
    e = nc_gen("e")
    if g == "f":
        return e
    if g in ROW_VECTOR:
        j = ROW_VECTOR.index(g)
        row = nc_add(nc_mul(nc_gen(ROW_VECTOR[0]), m[0][j]),
                     nc_mul(nc_gen(ROW_VECTOR[1]), m[1][j]))
        return nc_scale(nc_mul(e, row), parse("-1"))
    if g in COLUMN:
        i = COLUMN.index(g)
        col = nc_add(nc_mul(m[i][0], nc_gen(COLUMN[0])),
                     nc_mul(m[i][1], nc_gen(COLUMN[1])))
        return nc_scale(nc_mul(col, e), parse("-1"))
    for i in (0, 1):
        for j in (0, 1):
            if BLOCK[i][j] == g:
                col = nc_add(nc_mul(m[i][0], nc_gen(COLUMN[0])),
                             nc_mul(m[i][1], nc_gen(COLUMN[1])))
                row = nc_add(nc_mul(nc_gen(ROW_VECTOR[0]), m[0][j]),
                             nc_mul(nc_gen(ROW_VECTOR[1]), m[1][j]))
                return nc_add(nc_product(col, e, row), m[i][j])
    raise ValueError(f"{g!r} is not a grid generator")


def check_antipode_axiom(alg) -> CheckReport:
    """S convolved with the identity gives the counit at every position."""
    quotient = isinstance(alg, QuotientAlgebra)
    layout = LAYOUT_Q if quotient else LAYOUT_3
    system = alg.system
    report = CheckReport("antipode")
    dim = len(layout)
    for i in range(dim):
        for j in range(dim):
            want = nc_one() if i == j else nc_zero()
            left = nc_zero()
            right = nc_zero()
            for k in range(dim):
                u, v = layout[i][k], layout[k][j]
                if u is not None and v is not None:
                    left = nc_add(left, nc_mul(antipode(u, alg), nc_gen(v)))
                    right = nc_add(right, nc_mul(nc_gen(u), antipode(v, alg)))
            l_res = system.normal_form(nc_sub(left, want))
            r_res = system.normal_form(nc_sub(right, want))
            details = {}
            if not nc_is_zero(l_res):
                details["against"] = nc_str(l_res, system.generators)
            if not nc_is_zero(r_res):
                details["with"] = nc_str(r_res, system.generators)
            report.add(f"antipode:{i + 1}{j + 1}",
                       nc_is_zero(l_res) and nc_is_zero(r_res), **details)
    if quotient:
        ok = all(
            counit_poly(system.normal_form(antipode(g, alg))) == counit(g)
            for row in layout for g in row if g is not None
        )
        report.add("counit-of-antipode", ok)
    return report


# -- determinant claims ----------------------------------------------------------

def qdet_checks(q: QuotientAlgebra) -> CheckReport:
    """Group-like total determinant, its counit, and the inverse collapse."""
    system = q.system
    report = CheckReport("qdet")
    D = q.determinant

    image = coproduct_poly(D, LAYOUT_Q)
    diff = nc_sub(image, t_simple(D, D))
    report.add("determinant-group-like",
               nc_is_zero(tensor_normal_form(diff, system)))

    delta = system.normal_form(q.delta)
    image = coproduct_poly(delta, LAYOUT_Q)
    diff = nc_sub(image, t_simple(delta, delta))
    report.add("block-determinant-group-like",
               nc_is_zero(tensor_normal_form(diff, system)))

    report.add("counit-of-determinant", system.value(counit_poly(D)) == L_ONE)

    p = _rf("p", q.parent.bindings)
    graded = nc_sub(nc_word(("f", "x")), nc_word(("x", "f"), p))
    plain = nc_sub(nc_word(("f", "x")), nc_word(("x", "f")))
    witness = system.normal_form(plain)
    report.add("scale-noncentral-witness",
               system.reduces_to_zero(graded) and not nc_is_zero(witness),
               residual=nc_str(witness, system.generators))

    xi = nc_gen("xi")
    report.add("determinant-inverse",
               system.reduces_to_zero(nc_sub(nc_mul(xi, D), nc_one()))
               and system.reduces_to_zero(nc_sub(nc_mul(D, xi), nc_one())))
    return report


def delta_centrality(alg: DerivedAlgebra) -> CheckReport:
    """Block determinant commutators match, and die when m equals n."""
    system = alg.system
    delta = alg.delta
    m = _rf("m", alg.bindings)
    n = _rf("n", alg.bindings)
    mn = m - n

    def com(u):
        return nc_sub(nc_mul(delta, nc_gen(u)), nc_mul(nc_gen(u), delta))

    targets = {
        "a": nc_scale(nc_mul(delta, nc_gen("b")), mn),
        "b": nc_zero(),
        "c": nc_scale(nc_sub(nc_mul(delta, nc_gen("d")),
                             nc_mul(nc_gen("a"), delta)), mn),
        "d": nc_scale(nc_mul(delta, nc_gen("b")), -mn),
    }
    report = CheckReport("delta-centrality")
    for u, rhs in targets.items():
        report.add(f"commutator:{u}",
                   system.reduces_to_zero(nc_sub(com(u), rhs)))
    collapsed = all(
        nc_is_zero(nc_substitute_params(system.normal_form(com(u)),
                                        {"m": parse("n")}))
        for u in targets
    )
    report.add("central-at-m-equals-n", collapsed)
    return report


# -- coaction on the plane -------------------------------------------------------

def _unbraided(system: RewriteSystem) -> RewriteSystem:
    """Variant table where cross moves between plane and grid are flips."""
    plane = set(COLUMN)
    grid = {"f"} | {g for row in BLOCK for g in row}
    out = RewriteSystem(system.generators)
    for rule in system.rule_list():
        if not rule.tag.startswith("table:"):
            continue
        u, v = rule.lhs
        if (u in plane) != (v in plane) and {u, v} <= plane | grid:
            out.add_rule(RewriteRule(rule.lhs, nc_word((v, u)), rule.tag))
        else:
            out.add_rule(rule)
    return system.like(out)


def coaction_covariance(q: QuotientAlgebra, braiding: bool = True) -> CheckReport:
    """The coaction preserves the plane relation iff the braiding is kept.

    The coordinate images x' and y' are the coproducts, living in the
    tensor square.  Each tensor leg mixes plane coordinates with block
    and scale letters (the scale lands in the right leg of x', the block
    in the left), so reducing a leg to normal form exercises the cross
    relations; those moves are the braided exchange between the plane
    and the coacting algebra.  With braiding disabled the cross moves
    become naive flips and the residual survives, scaled by the plane
    deformation parameter.
    """
    m = _rf("m", q.parent.bindings)
    xp = coproduct("x", LAYOUT_Q)
    yp = coproduct("y", LAYOUT_Q)
    expr = nc_add(nc_sub(t_mul(xp, yp), t_mul(yp, xp)),
                  nc_scale(t_mul(xp, xp), m))
    system = q.system if braiding else _unbraided(q.system)
    residual = tensor_normal_form(expr, system)
    report = CheckReport("coaction")
    report.add("plane-relation-covariant", nc_is_zero(residual),
               braiding=braiding,
               residual_terms=len(residual),
               residual=t_str(residual))
    return report
