"""--set bindings read off the symbolic derivation.

derive() builds the algebra once over Q(m,n,k,p) and reads it under the
bindings, rational constants (a point) and expressions alike: the checks
run on the symbolic rules, and one laurent.Substitution puts the bindings
into what they read out (normal forms, critical pairs, rules, records),
through freealg.nc_evaluate.
read() returns None on the derivation's degeneracy locus, where the
algebra is derived at the bindings instead.

The locus.  Each entry of DerivedAlgebra.locus (and QuotientAlgebra.locus)
is a tuple of values; the bindings are on the locus when every value of
some entry vanishes under them, or when one is undefined.  The derivation
adds to it the R-matrix's denominators, every pivot an elimination
inverts (rref_sparse for the table, linalg.solve_dense for the adjoined
inverses and the block inverse), the collapse coefficient of each adjoined
inverse, and for each branch taken on a symbolically nonzero value the
values that decided it: the entries that leave a mover unsolved, the
residuals of a failed block-inverse check, the differences of the Schur
inverse's unresolved critical pairs.  derive_relation_table,
append_inverse and solve_block_inverse take the locus as a required
argument, so no step of a derivation leaves its pivots out.
linalg.add_to_locus keeps each entry once, so on_locus evaluates each
distinct entry once.

Exactness.  Every coefficient of the symbolic derivation lies in the ring
generated over Q by m, n, k, p and the inverses of the R-matrix's
denominators and of the pivots.  Putting the bindings in maps that ring
into a field, Q at a point and Q(remaining parameters) for expressions,
and is a ring homomorphism wherever no inverted value goes to zero, since
substituting rational functions respects sums and products.  Off the
locus, which on_locus decides exactly, it is defined and keeps a value of
every locus entry nonzero.  The argument below uses only these facts, so
it holds for points and expressions alike ("at the point" reads "under
the bindings").  Off the locus, the algebra derived at the point is the
symbolic one with its coefficients evaluated (cf. comprehensive Groebner
bases: Weispfenning, JSC 14, 1992; Kalkbrener, JSC 24, 1997):

* Every coefficient of the derivation is a polynomial in the R-matrix
  entries and the inverted pivots, so it is defined at the point, where
  the entries' denominators and the pivots are nonzero.
* Each elimination's steps, evaluated, are row operations at the point,
  since each pivot stays nonzero.  They end in rows that are monic in the
  same pivot columns, inter-reduced and spanning the evaluated rows.  The
  reduced form for a fixed column order is unique, so it is the evaluated
  symbolic one.  Hence the table has the same rules, a convention fails to
  orient with the same pivots, the same movers solve, and the
  block-inverse ansatz has the same solution.
* Every other branch tests a value for zero.  A symbolic zero stays zero,
  and a nonzero value that decided a branch is in the locus.  The collapse
  rule keeps its leading word because its coefficient is in the locus.
* Every rule is monic in its lhs.  Reduction rewrites the leftmost redex,
  found from the lhs words alone, and a word's normal form is the sum of
  its rule's rhs coefficients times the normal forms of the rewritten
  words.  By induction on the word, the normal form at the point is the
  evaluated symbolic one; a coefficient that vanishes there drops a term
  on both sides.  So is every residual a check reduces, every critical
  pair, and every element the derivation normalized.  A check builds its
  inputs symbolically, and a normal form is linear, so evaluating its
  result equals reducing the evaluated input at the point.
* The quotient's rules are the kept rules with the killed words erased,
  which commutes with evaluation; adjoining xi adds its own locus.

The results are exact, the rewriting work is not: the symbolic rules keep
the terms that vanish at the point, so a normal form can take more steps
than with the rules derived there.  A JFORGE_MAX_STEPS bound counts the
steps of the run that makes the report, on either route.
"""

from __future__ import annotations

from .errors import DivisionByZero, OrientationFailure
from .freealg import NCPoly, RewriteRule, RewriteSystem, nc_evaluate
from .laurent import Substitution
from .rtt import DerivedAlgebra, QuotientAlgebra


class SpecializedSystem(RewriteSystem):
    """A symbolic rewrite system read at a point (under bindings).

    value, a Substitution, maps a symbolic coefficient to its value at the
    point.  The system shares the symbolic system's rules, so rule_list(),
    find_redex and the critical pairs are the symbolic ones, and rewriting
    runs in the symbolic system and its word cache.  What leaves the system
    is read at the point: normal_form (and with it reduces_to_zero),
    tensor_normal_form, the two sides of a critical pair that does not
    resolve symbolically, and the coefficients of to_dict.  Only an element
    that is nonzero symbolically costs an evaluation.
    """

    def __init__(self, symbolic: RewriteSystem, value):
        super().__init__(symbolic.generators)
        self.symbolic = symbolic
        self.value = value
        self.rules = symbolic.rules
        self._lhs_lengths = symbolic._lhs_lengths

    def add_rule(self, rule: RewriteRule):
        raise TypeError("a specialized system is read-only; "
                        "add the rule to its symbolic system")

    def evaluate(self, elem: dict) -> dict:
        return nc_evaluate(elem, self.value)

    def reducer(self) -> RewriteSystem:
        return self.symbolic

    def normal_form(self, poly: NCPoly) -> NCPoly:
        return self.evaluate(self.symbolic.normal_form(poly))

    def _verdict(self, word, p1, r1, p2, r2):
        split = self.symbolic._verdict(word, p1, r1, p2, r2)
        if split is not None:
            split = (self.evaluate(split[0]), self.evaluate(split[1]))
            if split[0] == split[1]:
                return None
        return split


class SpecializedAlgebra(DerivedAlgebra):
    """A symbolic DerivedAlgebra read under bindings (see read).

    It shares the source's derivations, exchange entries, determinant and
    block inverse, and its bindings are the source's (none), so the checks
    build their inputs symbolically and most residuals vanish before any
    evaluation.  Its system reads every normal form, rule and record at
    point, which to_dict reports as the bindings.
    """

    def __init__(self, source: DerivedAlgebra, point: dict,
                 system: SpecializedSystem):
        self.__dict__.update(source.__dict__)
        self.source = source
        self.point = dict(point)
        self.system = system

    def extended(self) -> DerivedAlgebra:
        self.source.extend()
        alg = read(self.source, self.point)
        if alg is None:
            alg = DerivedAlgebra(self.rmat, self.convention, self.point)
        return alg

    def quotient(self) -> QuotientAlgebra:
        """The symbolic quotient with its system read at the point.

        Its parent stays the symbolic algebra, whose bindings (none) are
        what the quotient's checks read.
        """
        q = QuotientAlgebra(self.source)
        if on_locus(q.locus, self.system.value):
            return DerivedAlgebra(self.rmat, self.convention, self.point).quotient()
        q.system = SpecializedSystem(q.system, self.system.value)
        return q

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["bindings"] = {k: str(v) for k, v in sorted(self.point.items())}
        return out


def on_locus(locus: list, value) -> bool:
    """Whether every value of some locus entry vanishes, or one is undefined,
    under value."""
    try:
        return not all(any(not value(c).is_zero() for c in entry) for entry in locus)
    except DivisionByZero:
        return True


def read(alg: DerivedAlgebra, point: dict):
    """alg, derived symbolically, read under the bindings point, or None on
    its locus (see the module docstring for why this is exact)."""
    value = Substitution(point)
    if on_locus(alg.locus, value):
        return None
    return SpecializedAlgebra(alg, point, SpecializedSystem(alg.system, value))


def derive(convention: str = "plain", bindings: dict = None,
           extend: bool = True) -> DerivedAlgebra:
    """DerivedAlgebra(convention=..., bindings=..., extend=...), read off
    the symbolic derivation when the bindings are off its locus.

    The graded table is read before it is extended, so bindings on its
    locus cost no symbolic extension; those on the locus of the extension
    or the quotient fall back in SpecializedAlgebra.extended and .quotient.
    A convention that fails to orient symbolically fails off its locus with
    the same message.  Bindings on the locus are derived at the bindings.
    """
    if bindings:
        try:
            graded = DerivedAlgebra(convention=convention, extend=False)
        except OrientationFailure as exc:
            if not on_locus(exc.locus, Substitution(bindings)):
                raise
        else:
            alg = read(graded, bindings)
            if alg is not None:
                return alg.extended() if extend else alg
    return DerivedAlgebra(convention=convention, bindings=bindings, extend=extend)
