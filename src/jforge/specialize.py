"""--set bindings, put in by one laurent.Substitution on every route.

derive() returns a SpecializedAlgebra for any bindings, rational constants
(a point) and expressions alike.  Its source is the algebra derived once
over Q(m,n,k,p) when the bindings are off that derivation's degeneracy
locus, and the algebra derived at the bindings when they are on it.
Either way its system is the source's read through one SpecializedSystem:
rewriting runs on the source's rules, and the Substitution puts the
bindings into what the checks read out (normal forms, critical pairs,
rules, records), through freealg.nc_evaluate.  The checks build every
hand-written coefficient symbolically, so their inputs are the same on
both routes.  read() returns None on the locus.

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

On the locus the source is derived at the bindings, so its coefficients
hold no bound parameter and reading them gives them back unchanged.  A
symbolic input sum c_w*w then has the normal form sum c_w*NF(w) with
every NF(w) free of the bound parameters, and reading it puts the
bindings into the c_w alone: it is the normal form of the evaluated input.

The results are exact, the rewriting work is not: the symbolic rules, and
on the locus the symbolic inputs, keep the terms that vanish at the point,
so a normal form can take more steps than with everything evaluated.  A
JFORGE_MAX_STEPS bound counts the steps of the run that makes the report,
on either route, each normal form's rewrite tree as if nothing were
cached (see freealg), so the shared word cache does not change the count.
"""

from __future__ import annotations

from .errors import DivisionByZero, OrientationFailure
from .freealg import NCPoly, RewriteRule, RewriteSystem, nc_evaluate
from .laurent import Substitution
from .rtt import DerivedAlgebra, QuotientAlgebra


class SpecializedSystem(RewriteSystem):
    """A rewrite system read at a point (under bindings).

    The wrapped system, here called symbolic, is the symbolic one, or on
    the locus the one derived at the point (see SpecializedAlgebra).  value,
    a Substitution, maps a symbolic coefficient to its value at the point.
    The system shares the symbolic system's rules, so rule_list(),
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

    def quotient(self, killed) -> "SpecializedSystem":
        """The symbolic system's quotient (see RewriteSystem.quotient), read
        at the same point; erasing words commutes with evaluation."""
        return SpecializedSystem(self.symbolic.quotient(killed), self.value)

    def reducer(self) -> RewriteSystem:
        return self.symbolic

    def normal_form(self, poly: NCPoly) -> NCPoly:
        return self.evaluate(self.symbolic.normal_form(poly))

    def word_normal_form(self, word) -> NCPoly:
        return self.evaluate(self.symbolic.word_normal_form(word))

    def _verdict(self, word, p1, r1, p2, r2):
        split = self.symbolic._verdict(word, p1, r1, p2, r2)
        if split is not None:
            split = (self.evaluate(split[0]), self.evaluate(split[1]))
            if split[0] == split[1]:
                return None
        return split


class SpecializedAlgebra(DerivedAlgebra):
    """A DerivedAlgebra, source, read under bindings (see derive).

    It shares the source's derivations, exchange entries, determinant and
    block inverse; its system is the source's read through one
    Substitution.  source.bindings are the bindings when the source was
    derived at them, on the locus, and empty when it is symbolic.
    """

    def __init__(self, source: DerivedAlgebra, point: dict, value: Substitution):
        self.__dict__.update(source.__dict__)
        self.source = source
        self.bindings = dict(point)
        self.system = SpecializedSystem(source.system, value)

    def extended(self) -> "SpecializedAlgebra":
        self.source.extend()
        return _specialized(self.source, self.bindings, self.system.value, extend=True)

    def quotient(self) -> QuotientAlgebra:
        """The source's quotient read at the point; on the locus of a
        symbolic source's quotient, that of the algebra derived there."""
        q = QuotientAlgebra(self.source)
        value = self.system.value
        if not self.source.bindings and on_locus(q.locus, value):
            q = QuotientAlgebra(DerivedAlgebra(self.rmat, self.convention, self.bindings))
        q.system = SpecializedSystem(q.system, value)
        return q


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
    return SpecializedAlgebra(alg, point, value)


def _specialized(source: DerivedAlgebra, point: dict, value: Substitution,
                 extend: bool) -> SpecializedAlgebra:
    """source read at point.  A source derived at the point is read as it
    is; a symbolic one is read off its locus and, on it, replaced by the
    algebra derived at the point (extended when extend)."""
    if not source.bindings and on_locus(source.locus, value):
        source = DerivedAlgebra(source.rmat, source.convention, point, extend)
    return SpecializedAlgebra(source, point, value)


def derive(convention: str = "plain", bindings: dict = None,
           extend: bool = True) -> DerivedAlgebra:
    """The algebra of DerivedAlgebra(convention=..., extend=...) under
    bindings: with none, that algebra; else a SpecializedAlgebra.

    Its source is the symbolic derivation off the locus and the algebra
    derived at the bindings on it.  The graded table is read before it is
    extended, so bindings on its locus cost no symbolic extension; those on
    the locus of the extension or the quotient fall back in
    SpecializedAlgebra.extended and .quotient.  A convention that fails to
    orient symbolically fails off its locus with the same message.
    """
    if not bindings:
        return DerivedAlgebra(convention=convention, extend=extend)
    value = Substitution(bindings)
    try:
        graded = DerivedAlgebra(convention=convention, extend=False)
    except OrientationFailure as exc:
        if not on_locus(exc.locus, value):
            raise
        graded = DerivedAlgebra(convention=convention, bindings=bindings, extend=False)
    alg = _specialized(graded, bindings, value, extend=False)
    return alg.extended() if extend else alg
