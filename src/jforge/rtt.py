"""Commutation relations of the bialgebra attached to an R-matrix.

Feeding a 9x9 R-matrix and a 3x3 grid of generator names through the
exchange identity R T1 T2 = T2 T1 R yields 81 bilinear identities among
the grid entries.  Row reduction over the coefficient field turns those
into an oriented rewrite table with exactly one rule per descending pair
of generators, i.e. the multiplication law of the algebra in
normal-ordered form.

On top of the quadratic table the module adjoins formal inverses: of the
scale generator f, of the lower-block determinant, and of the Schur
complement of the lower block.  Each inverse's commutation rules are
derived mechanically by solving small linear systems inside the algebra
and are verified by multiplying back when their record is rendered, so no
relation is ever transcribed by hand.  A quotient construction kills the
upper-row generators and adjoins the inverse of the total determinant,
giving the inhomogeneous algebra that the coaction checks run against.

Every elimination pivot, collapse coefficient and branch-deciding value
of a derivation goes to its degeneracy locus; off that locus the algebra
derived under bindings is the symbolic one evaluated, which is how
specialize.derive reads bindings off the symbolic derivation.  The
hand-written coefficients are built symbolically; bindings go into the
R-matrix and the block determinant only.

The derived table is cross-checked against an independently recorded
set of 27 commutation relations (reference_relations); the verifier
reports any mismatch together with a sign-flipped variant of the
residual, so a wrong sign in the recorded set is visible at a glance.
"""

from __future__ import annotations

from functools import cache

from .errors import MissingInverse, OrientationFailure
from .field import RF_ONE, RatFunc, add_into
from .freealg import (
    NCPoly,
    RewriteRule,
    RewriteSystem,
    nc_add,
    nc_evaluate,
    nc_gen,
    nc_is_zero,
    nc_mul,
    nc_one,
    nc_product,
    nc_scale,
    nc_str,
    nc_sub,
    nc_word,
    nc_zero,
)
from .grammar import parse, serialize
from .laurent import L_ONE, Laurent, Substitution, coerce
from .linalg import add_to_locus, rref_sparse, solve_dense
from .report import CheckReport
from .rmat import TensorMat, jordanian_r3

# Fixed generator order: scale first, then coordinates, then the grid
# sectors with later rows sorting higher and later columns sorting lower,
# adjoined inverses last.  The column flip is forced: the relation table
# contains squares of the last-column generators (b, d, phi), and a square
# can only sit on the small side of an oriented rule, so those letters
# must sort below their row partners or rewriting loses confluence.
GEN_ORDER = (
    "f", "f_inv", "x", "y", "phi", "theta",
    "b", "a", "d", "c", "delta_inv", "e", "xi",
)

LETTERS = ("f", "x", "y", "theta", "phi", "a", "b", "c", "d")

# Grid of generators the exchange identity quantizes: scale and row vector
# on top, column vector and 2x2 block below.
LAYOUT_3 = (
    ("f", "theta", "phi"),
    ("x", "a", "b"),
    ("y", "c", "d"),
)

BLOCK = (("a", "b"), ("c", "d"))
COLUMN = ("x", "y")
ROW_VECTOR = ("theta", "phi")

CONVENTIONS = ("plain", "transposed")

_GEN_INDEX = {g: i for i, g in enumerate(GEN_ORDER)}


def _rf(text: str):
    return coerce(parse(text))


# -- the exchange identity -----------------------------------------------------

def rtt_entries(rmat: TensorMat, convention: str = "plain") -> dict:
    """All entries of R T1 T2 - T2 T1 R as bilinear words in the grid.

    Keys are ((i,j),(k,l)) basis-pair positions; values are elements of the
    free algebra supported on two-letter words.  With convention
    "transposed" the transpose of R is used instead, which is the competing
    reading of the identity resolved empirically by resolve_convention.
    Each R entry goes through coerce once, when first read, so the words'
    coefficients are Laurent unless an entry has a several-term denominator.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    basis = rmat.basis
    seen = {}

    def coeff(rp, cp):
        key = (rp, cp) if convention == "plain" else (cp, rp)
        c = seen.get(key)
        if c is None:
            c = seen[key] = coerce(rmat.entry(*key))
        return c

    out = {}
    for (i, j) in basis:
        for (k, l) in basis:
            acc: NCPoly = {}
            for (u, v) in basis:
                c1 = coeff((i, j), (u, v))
                if not c1.is_zero():
                    add_into(acc, (LAYOUT_3[u - 1][k - 1], LAYOUT_3[v - 1][l - 1]), c1)
                c2 = coeff((u, v), (k, l))
                if not c2.is_zero():
                    add_into(acc, (LAYOUT_3[j - 1][v - 1], LAYOUT_3[i - 1][u - 1]), -c2)
            out[((i, j), (k, l))] = acc
    return out


def derive_relation_table(rmat: TensorMat, convention: str, locus: list,
                          entries: dict) -> RewriteSystem:
    """Row-reduce the exchange identities into an oriented rewrite table.

    entries are rtt_entries(rmat, convention).  The returned system lives
    on the full GEN_ORDER alphabet; its rules normal-order every descending
    pair of grid generators.  OrientationFailure if the reduced pivots are
    not exactly the descending pairs, which would mean the identities do
    not present a normal-ordering system for this matrix and convention.
    The denominators of rmat and the pivots are appended to locus; an
    OrientationFailure carries it as its locus.
    """
    for den in _denominators(rmat):
        add_to_locus(locus, (den,))
    letters = tuple(sorted({g for row in LAYOUT_3 for g in row},
                           key=_GEN_INDEX.__getitem__))
    columns = [(u, v) for u in letters for v in letters]
    columns.sort(key=lambda w: tuple(_GEN_INDEX[g] for g in w), reverse=True)
    rows = [e for e in entries.values() if e]
    reduced, pivots = rref_sparse(rows, columns, locus)
    expected = {(u, v) for u in letters for v in letters
                if _GEN_INDEX[u] > _GEN_INDEX[v]}
    got = set(pivots)
    if got != expected:
        odd = sorted(got.symmetric_difference(expected))
        exc = OrientationFailure(
            f"exchange identities do not normal-order the grid "
            f"(convention {convention}); mismatched pivots: {odd[:6]}"
        )
        exc.locus = locus
        raise exc
    system = RewriteSystem(GEN_ORDER)
    for row, pivot in zip(reduced, pivots):
        rhs = {w: -c for w, c in row.items() if w != pivot}
        system.add_rule(RewriteRule(pivot, rhs, f"table:{pivot[0]}-{pivot[1]}"))
    return system


def _denominators(rmat: TensorMat):
    """The nonconstant denominators of rmat's entries, as RatFunc
    polynomials."""
    for row in rmat.rows:
        for x in row:
            den = (x.to_rf() if type(x) is Laurent else x).den
            if den != RF_ONE.num:
                yield RatFunc(dict(den), _reduced=True)


# -- adjoined inverses ---------------------------------------------------------

def append_inverse(system: RewriteSystem, inv_name: str, element: NCPoly,
                   movers, locus: list) -> dict:
    """Adjoin a two-sided inverse of element to the presented algebra.

    For every mover h the commutation of the new inverse past h is derived
    by solving h*element = sum u_g element*g (resp. element*h = sum u_g
    g*element when h sorts above the inverse) inside the algebra, then
    sandwiching with the inverse.  The movers on each side of the inverse
    share one image matrix, so each side is one linalg.solve_dense call
    with all of its movers as targets.  A collapse rule oriented at the
    largest word of element * inverse closes the system.  Nothing is added
    unless every mover solves.  The rules are tagged inv:<inv_name>.

    Returns the derivation, which inverse_record renders: the element's
    normal form, the solved coefficients, the unsolved movers, whether the
    rules were added and, if so, the system they were added to, in which
    inverse_record computes the unit identities and per-mover roundtrips.
    The eliminations' pivots, the entries that leave a mover unsolved and
    the collapse coefficient go to locus.
    """
    tag = f"inv:{inv_name}"
    elem = system.normal_form(element)
    if nc_is_zero(elem):
        raise MissingInverse(f"cannot invert zero element for {inv_name}")
    idx = system.index
    movers = tuple(sorted(movers, key=idx.__getitem__))
    derivation = {"inverse": inv_name, "element": elem, "solved": {},
                  "unsolved": [], "added": False}
    pending = []
    unknowns = sorted(movers)  # by name: the solver's pivot preference
    # movers sorting below the inverse first, as in the sorted movers
    for above in (False, True):
        side = [h for h in movers if (idx[h] >= idx[inv_name]) == above]
        if not side:
            continue
        if above:
            images = {g: system.normal_form(nc_mul(nc_gen(g), elem)) for g in unknowns}
            targets = [system.normal_form(nc_mul(elem, nc_gen(h))) for h in side]
        else:
            images = {g: system.normal_form(nc_mul(elem, nc_gen(g))) for g in unknowns}
            targets = [system.normal_form(nc_mul(nc_gen(h), elem)) for h in side]
        for h, sol in zip(side, solve_dense(images, targets, locus)):
            if sol is None:
                derivation["unsolved"].append(h)
                continue
            if above:
                lhs = (h, inv_name)
                rhs = {(inv_name, g): u for g, u in sol.items()}
            else:
                lhs = (inv_name, h)
                rhs = {(g, inv_name): u for g, u in sol.items()}
            derivation["solved"][h] = sol
            pending.append(RewriteRule(lhs, rhs, f"{tag}:{h}"))
    if derivation["unsolved"]:
        return derivation
    for rule in pending:
        system.add_rule(rule)
    # collapse: element * inverse = 1, oriented at the largest word
    prod = {w + (inv_name,): c for w, c in elem.items()}
    wmax = max(prod, key=system.word_key)
    add_to_locus(locus, (prod[wmax],))
    rest = {w: c for w, c in prod.items() if w != wmax}
    rhs = nc_scale(nc_sub(nc_one(), rest), prod[wmax].inverse())
    system.add_rule(RewriteRule(wmax, system.normal_form(rhs), f"{tag}:unit"))
    derivation["added"] = True
    derivation["system"] = system
    return derivation


def inverse_record(derivation: dict, system: RewriteSystem) -> dict:
    """The JSON record of an append_inverse derivation, read through system.

    "verified" certifies the two unit identities element*inverse -> 1 and
    inverse*element -> 1; "mover_roundtrip" holds the per-mover
    diagnostics h*element*inverse -> h.  Both are present when the rules
    were added, and are normalized here, in the system the derivation added
    them to.  That gives what append_inverse would have found right after
    adding them: a rule added later has a later inverse letter (delta_inv
    or e) in its lhs, which these words never contain, so it never applies
    to them, and an e rolled back leaves its derivation the system object
    that still holds its rules.  Every polynomial and coefficient goes
    through system.evaluate, so a SpecializedSystem gives the record at its
    point.

    The roundtrips do not gate "verified": for a mover sorting above every
    letter of the element the rewrite puts h at the word end, where the
    collapse pattern can no longer match, so the roundtrip may stall on a
    normal word even though the solved identity itself is exact (each
    added rule's two sides were equated through normal forms, hence differ
    by an ideal member).
    """
    at, gens = system.evaluate, system.generators
    record = {
        "inverse": derivation["inverse"],
        "element": nc_str(at(derivation["element"]), gens),
        "solved": {h: {g: serialize(u) for g, u in sorted(at(sol).items())}
                   for h, sol in derivation["solved"].items()},
        "unsolved": list(derivation["unsolved"]),
        "added": derivation["added"],
        "verified": False,
    }
    if "system" in derivation:
        nf = derivation["system"].normal_form
        elem, inv = derivation["element"], nc_gen(derivation["inverse"])
        record["verified"] = not any(
            at(nf(nc_sub(product, nc_one())))
            for product in (nc_mul(elem, inv), nc_mul(inv, elem)))
        record["mover_roundtrip"] = {
            h: not at(nc_sub(nf(nc_product(nc_gen(h), elem, inv)), nf(nc_gen(h))))
            for h in derivation["solved"]}
    if "rolled_back" in derivation:
        record["rolled_back"] = derivation["rolled_back"]
    return record


# -- distinguished elements ----------------------------------------------------

def block_determinant() -> NCPoly:
    """Determinant of the lower 2x2 block, in normal-ordered words."""
    n = Laurent.var("n")
    out = nc_word(("a", "d"))
    out = nc_sub(out, nc_word(("b", "c")))
    out = nc_sub(out, nc_scale(nc_word(("b", "d")), n))
    return out


def solve_block_inverse(system: RewriteSystem, locus: list):
    """Inverse of BLOCK as words (letters) * delta_inv, the adjoined
    inverse of the block determinant.

    Each entry is an ansatz over normal words of degree <= 2 in the block
    letters times delta_inv; the linear system T*M = I is solved exactly,
    both columns of I in one linalg.solve_dense call, and M*T = I is
    verified independently.  Returns (matrix, record); matrix is None if
    the ansatz has no solution, and record["verified"] says whether the
    solution inverts the block (block_record renders the entries).  The
    pivots go to locus, and so do the residuals' coefficients, as one
    tuple, when the verification fails: it keeps failing wherever one of
    them is nonzero.
    """
    inv = "delta_inv"
    letters = tuple(sorted({g for row in BLOCK for g in row},
                           key=system.index.__getitem__))
    cands = [()]
    cands += [(g,) for g in letters]
    cands += [(g, h) for g in letters for h in letters
              if system.index[g] <= system.index[h]]
    cands = [w for w in cands if system.is_normal_word(w + (inv,))]
    record = {"inverse_of": [list(r) for r in BLOCK], "candidates": len(cands),
              "solved": False, "verified": False}
    # the unknown (k, w) is the coefficient of w*inv in entry (k, j); the
    # row (i, word) is the coefficient of word in entry (i, j) of T*M
    columns = {}
    for k in (0, 1):
        for w in cands:
            columns[(k, w)] = {
                (i, word): c for i in (0, 1)
                for word, c in system.normal_form(
                    nc_word((BLOCK[i][k],) + w + (inv,))).items()}
    solutions = solve_dense(columns, [{(j, ()): L_ONE} for j in (0, 1)], locus)
    if None in solutions:
        return None, record
    matrix = [[nc_zero(), nc_zero()], [nc_zero(), nc_zero()]]
    for j, sol in enumerate(solutions):
        for (k, w), u in sol.items():
            matrix[k][j] = nc_add(matrix[k][j], nc_word(w + (inv,), u))
    record["solved"] = True
    # verify both products against the identity
    residuals = []
    for i in (0, 1):
        for j in (0, 1):
            left = nc_add(nc_mul(nc_gen(BLOCK[i][0]), matrix[0][j]),
                          nc_mul(nc_gen(BLOCK[i][1]), matrix[1][j]))
            right = nc_add(nc_mul(matrix[i][0], nc_gen(BLOCK[0][j])),
                           nc_mul(matrix[i][1], nc_gen(BLOCK[1][j])))
            want = nc_one() if i == j else nc_zero()
            residuals.append(system.normal_form(nc_sub(left, want)))
            residuals.append(system.normal_form(nc_sub(right, want)))
    record["verified"] = not any(residuals)
    if not record["verified"]:
        add_to_locus(locus, tuple(c for r in residuals for c in r.values()))
    return matrix, record


def block_record(matrix, record: dict, system: RewriteSystem) -> dict:
    """record of solve_block_inverse with the entries of matrix, read
    through system (see inverse_record)."""
    if matrix is None:
        return dict(record)
    return dict(record, entries=[[nc_str(system.evaluate(matrix[i][j]), system.generators)
                                  for j in (0, 1)] for i in (0, 1)])


def schur_complement(system: RewriteSystem, block_inv) -> NCPoly:
    """f minus row-vector * block-inverse * column, normal-ordered."""
    out = nc_gen("f")
    for i in (0, 1):
        for j in (0, 1):
            term = nc_product(nc_gen(ROW_VECTOR[i]), block_inv[i][j],
                              nc_gen(COLUMN[j]))
            out = nc_sub(out, term)
    return system.normal_form(out)


# -- the assembled algebra -----------------------------------------------------

class DerivedAlgebra:
    """Rewrite presentation derived from one R-matrix via the exchange identity.

    Carries the rewrite system (quadratic table plus adjoined inverses),
    the exchange entries it was reduced from, the distinguished block
    determinant, the solved block inverse, the Schur complement of the
    block, the per-step derivations (rendered through the system by the
    records properties) and the derivation's degeneracy locus (see
    specialize).  bindings go into the R-matrix and the block determinant,
    so the derivation is the one at the bindings.
    """

    def __init__(self, rmat: TensorMat = None, convention: str = "plain",
                 bindings: dict = None, extend: bool = True):
        base = rmat if rmat is not None else jordanian_r3()
        self.bindings = dict(bindings or {})
        self.rmat = base.substitute(self.bindings)
        self.convention = convention
        self.locus = []
        self.entries = rtt_entries(self.rmat, convention)
        self.system = derive_relation_table(self.rmat, convention, self.locus,
                                            self.entries)
        self.delta = nc_evaluate(block_determinant(), Substitution(self.bindings))
        self.derivations = []
        self.block_inv = None
        self._block = None
        self.schur = None
        if extend:
            self.extend()

    def extend(self):
        """Adjoin the inverses of f, the block determinant and the Schur
        complement to the graded table, in place."""
        d = append_inverse(self.system, "f_inv", nc_gen("f"), LETTERS, locus=self.locus)
        self.derivations.append(d)
        movers = ("f", "f_inv", "x", "y", "theta", "phi", "a", "b", "c", "d")
        d = append_inverse(self.system, "delta_inv", self.delta, movers, locus=self.locus)
        self.derivations.append(d)
        matrix, record = solve_block_inverse(self.system, locus=self.locus)
        self._block = (matrix, record)
        if record["verified"]:
            self.block_inv = matrix
            self.schur = schur_complement(self.system, self.block_inv)
            movers_e = movers + ("delta_inv",)
            d = append_inverse(self.system, "e", self.schur, movers_e, locus=self.locus)
            self.derivations.append(d)
            if d["added"] and not self._still_confluent():
                self._drop_rules("inv:e")
                d["added"] = False
                d["rolled_back"] = "critical pairs stopped resolving"

    def extended(self) -> "DerivedAlgebra":
        """The algebra with the inverses adjoined: this one, extended."""
        self.extend()
        return self

    def _still_confluent(self) -> bool:
        """Whether the degree-3 critical pairs of the inv:e rules resolve.

        Every lhs containing e is an inv:e rule, and a rule whose rhs
        contains e has e in its lhs, so a word without e rewrites only by
        rules without e, to words without e.  The other pairs have words
        without e and keep the verdict they had before e was adjoined.  The
        differences of the pairs that do not resolve go to the locus.
        """
        inv_e = [r for r in self.system.rule_list() if r.tag.startswith("inv:e")]
        splits = self.system.new_pairs_unresolved(inv_e, max_degree=3)
        if splits:
            add_to_locus(self.locus, tuple(c for nf1, nf2 in splits
                                           for c in nc_sub(nf1, nf2).values()))
        return not splits

    def _drop_rules(self, tag_prefix: str):
        fresh = RewriteSystem(self.system.generators)
        for rule in self.system.rule_list():
            if not rule.tag.startswith(tag_prefix):
                fresh.add_rule(rule)
        self.system = fresh

    # -- records -----------------------------------------------------------
    @property
    def records(self) -> list:
        return [inverse_record(d, self.system) for d in self.derivations]

    @property
    def block_inv_record(self):
        return self._block and block_record(*self._block, self.system)

    # -- convenience -------------------------------------------------------
    def quotient(self) -> "QuotientAlgebra":
        return QuotientAlgebra(self)

    def to_dict(self) -> dict:
        out = self.system.to_dict()
        out["convention"] = self.convention
        out["bindings"] = {k: str(v) for k, v in sorted(self.bindings.items())}
        out["derivations"] = self.records
        if self._block:
            out["block_inverse"] = self.block_inv_record
        return out


class QuotientAlgebra:
    """Quotient by the ideal of words touching the row-vector generators.

    Kills theta, phi and the Schur inverse, then adjoins the inverse of
    the total determinant f * (block determinant), which becomes the
    distinguished group-like of the inhomogeneous algebra.  Its locus is
    what adjoining that inverse adds to the parent's.
    """

    KILLED = ("theta", "phi", "e")

    def __init__(self, parent: DerivedAlgebra):
        self.parent = parent
        self.locus = []
        self.system = parent.system.quotient(self.KILLED)
        self.determinant = self.system.normal_form(
            nc_mul(nc_gen("f"), parent.delta))
        movers = ("f", "f_inv", "x", "y", "a", "b", "c", "d", "delta_inv")
        append_inverse(self.system, "xi", nc_mul(nc_gen("f"), parent.delta), movers,
                       locus=self.locus)
        self.block_inv = parent.block_inv


# -- reference relation set ------------------------------------------------------

@cache
def reference_relations() -> tuple:
    """Independently recorded commutation relations, as residuals.

    Returns a tuple of (tag, poly) pairs, built once per process and
    shared by every caller, who only reads the polynomials; each poly
    must reduce to zero under the derived table if the record and the
    derivation agree.  Tags name the
    generator pair.  The f-y entry is kept exactly as recorded even though
    the derived table supports only its sign-flipped variant; the verifier
    shows both residuals side by side.  Two certificates show that the
    recorded sign is the erratum (README.md, "The recorded f-y sign"): the
    graded table (extend=False), whose degree-2 ideal is the span of the
    exchange entries, leaves 2*k/p*f*x for the recorded entry and 0 for
    the flipped one; and modulo the recorded f-x, c-f and d-f relations
    the quotient coproduct of f*y - p*y*f + s*k*x*f is compatible only
    with s = -1, the flipped sign, unless k = 0.
    """
    def com(u, v):
        return nc_sub(nc_word((u, v)), nc_word((v, u)))

    def pcom(u, v):
        return nc_sub(nc_word((u, v)), nc_word((v, u), _rf("p")))

    def words(*terms):
        out = nc_zero()
        for coeff, word in terms:
            out = nc_add(out, nc_word(word, _rf(coeff)))
        return out

    delta = block_determinant()

    def dcom(u):
        return nc_sub(nc_mul(delta, nc_gen(u)), nc_mul(nc_gen(u), delta))

    rels = []
    # lower-block pairs
    rels.append(("ref:a-b", nc_sub(com("a", "b"), words(("n", ("b", "b"))))))
    rels.append(("ref:a-c", nc_sub(com("a", "c"),
                 nc_sub(nc_scale(delta, _rf("m")), words(("m", ("a", "a")))))))
    rels.append(("ref:a-d", nc_sub(com("a", "d"),
                 words(("n", ("b", "d")), ("-m", ("b", "a"))))))
    rels.append(("ref:b-d", nc_sub(com("b", "d"), words(("-m", ("b", "b"))))))
    rels.append(("ref:b-c", nc_sub(com("b", "c"),
                 words(("-m", ("b", "a")), ("-n", ("d", "b"))))))
    rels.append(("ref:c-d", nc_sub(com("c", "d"),
                 nc_sub(words(("n", ("d", "d"))), nc_scale(delta, _rf("n"))))))
    # block determinant against the block
    rels.append(("ref:det-a", nc_sub(dcom("a"),
                 nc_scale(nc_mul(delta, nc_gen("b")), _rf("m - n")))))
    rels.append(("ref:det-b", dcom("b")))
    rels.append(("ref:det-c", nc_sub(dcom("c"), nc_scale(
        nc_sub(nc_mul(delta, nc_gen("d")), nc_mul(nc_gen("a"), delta)),
        _rf("m - n")))))
    rels.append(("ref:det-d", nc_sub(dcom("d"),
                 nc_scale(nc_mul(delta, nc_gen("b")), _rf("n - m")))))
    # block against the scale
    rels.append(("ref:a-f", nc_sub(com("a", "f"), words(("k/p", ("f", "b"))))))
    rels.append(("ref:b-f", com("b", "f")))
    rels.append(("ref:c-f", nc_sub(com("c", "f"),
                 words(("k/p", ("f", "d")), ("-k/p", ("a", "f"))))))
    rels.append(("ref:d-f", nc_sub(com("d", "f"), words(("-k/p", ("b", "f"))))))
    # block against the column
    rels.append(("ref:a-x", nc_sub(pcom("a", "x"), words(("k", ("x", "b"))))))
    rels.append(("ref:b-x", pcom("b", "x")))
    rels.append(("ref:c-x", nc_sub(pcom("c", "x"),
                 words(("k", ("x", "d")), ("m", ("a", "x"))))))
    rels.append(("ref:d-x", nc_sub(pcom("d", "x"), words(("m", ("b", "x"))))))
    rels.append(("ref:a-y", nc_sub(pcom("a", "y"),
                 words(("k", ("y", "b")), ("-m", ("a", "x"))))))
    rels.append(("ref:b-y", nc_sub(pcom("b", "y"), words(("-m", ("b", "x"))))))
    rels.append(("ref:c-y", nc_sub(pcom("c", "y"),
                 words(("k", ("y", "d")), ("n", ("c", "x")),
                       ("-n", ("a", "y")), ("-m*n", ("a", "x"))))))
    rels.append(("ref:d-y", nc_sub(pcom("d", "y"),
                 words(("n", ("d", "x")), ("-n", ("b", "y")),
                       ("-m*n", ("b", "x"))))))
    rels.append(("ref:det-x", nc_sub(nc_mul(delta, nc_gen("x")),
                 nc_scale(nc_mul(nc_gen("x"), delta), _rf("p^2")))))
    rels.append(("ref:det-y", nc_sub(
        nc_mul(delta, nc_gen("y")),
        nc_add(nc_scale(nc_mul(nc_gen("y"), delta), _rf("p^2")),
               nc_scale(nc_mul(delta, nc_gen("x")), _rf("n - m"))))))
    # scale against the column; f-y is as recorded, see the docstring
    rels.append(("ref:f-x", pcom("f", "x")))
    rels.append(("ref:f-y", nc_sub(pcom("f", "y"), words(("-k", ("x", "f"))))))
    # the column plane
    rels.append(("ref:x-y", nc_sub(com("x", "y"), words(("-m", ("x", "x"))))))
    return tuple(rels)


def _flipped_f_y() -> NCPoly:
    """The recorded f-y entry with the sign of its k*x*f term flipped."""
    return nc_sub(
        nc_sub(nc_word(("f", "y")), nc_word(("y", "f"), Laurent.var("p"))),
        nc_word(("x", "f"), Laurent.var("k")))


def verify_reference(alg: DerivedAlgebra) -> CheckReport:
    """Reduce every recorded relation; report residuals on mismatch.

    For the f-y pair the report always shows the recorded residual and
    the sign-flipped residual side by side; under the derived table they
    are 2*k/p*f*x and 0.  That FAIL rests on two certificates, neither
    of which needs confluence beyond degree 2: the same residuals in the
    graded table, and the coproduct of the recorded entry, which leaves a
    nonzero residual in the quotient while the flipped entry's vanishes
    (see reference_relations).
    """
    report = CheckReport("reference-relations")
    gens = alg.system.generators
    for tag, poly in reference_relations():
        residual = alg.system.normal_form(poly)
        details = {}
        if residual:
            details["residual"] = nc_str(residual, gens)
        if tag == "ref:f-y":
            flipped = alg.system.normal_form(_flipped_f_y())
            details["recorded_residual"] = nc_str(residual, gens)
            details["sign_flipped_residual"] = nc_str(flipped, gens)
        report.add(tag, not residual, **details)
    return report


def rtt_zero_report(alg: DerivedAlgebra) -> CheckReport:
    """Every exchange-identity entry must reduce to zero under the table."""
    report = CheckReport("rtt-entries")
    entries = alg.entries
    failures = []
    for pos, poly in entries.items():
        if not alg.system.reduces_to_zero(poly):
            failures.append({"row": list(pos[0]), "col": list(pos[1])})
    report.add("entries-reduce-to-zero", not failures,
               total=len(entries), failures=failures[:5])
    return report


def resolve_convention(bindings: dict = None):
    """Pick the exchange-identity reading that reproduces the record.

    Derives the table under both conventions with specialize.derive, which
    may read the bindings off the symbolic table, and counts how many
    recorded relations reduce to zero.  Returns (winner, scores, graded):
    graded is the winner's extend=False algebra, whose extended() is the
    full algebra, or None if the winner's derivation raised.  A convention
    whose identities fail to normal-order the grid scores -1.
    """
    from .specialize import derive  # specialize builds on this module

    relations = [poly for _tag, poly in reference_relations()]
    scores = {}
    graded = {}
    for conv in CONVENTIONS:
        try:
            alg = derive(conv, bindings, extend=False)
        except OrientationFailure as exc:
            scores[conv] = {"score": -1, "error": str(exc)}
            continue
        count = sum(1 for poly in relations if alg.system.reduces_to_zero(poly))
        scores[conv] = {"score": count}
        graded[conv] = alg
    winner = max(CONVENTIONS, key=lambda c: scores[c]["score"])
    return winner, scores, graded.get(winner)
