"""Rational points read off the symbolic derivation.

When every --set value is a rational constant, derive() builds the algebra
once over Q(m,n,k,p) and reads it at the point: the checks run on the
symbolic rules, and only what they read out (normal forms, critical
pairs, rules, records) is evaluated there.  read() returns None when the
point is on the derivation's degeneracy locus, and the algebra is then
derived at the point instead.

The locus.  Each entry of DerivedAlgebra.locus (and QuotientAlgebra.locus)
is a tuple of values; the point is on the locus when every value of some
entry vanishes there, or when one is undefined.  The derivation appends
to it the R-matrix's denominators, every pivot an elimination inverts
(rref_sparse for the table, linalg.solve_dense for the adjoined inverses
and the block inverse), the collapse coefficient of each adjoined inverse, and for
each branch taken on a symbolically nonzero value the values that decided
it: the entries that leave a mover unsolved, the residuals of a failed
block-inverse check, the differences of the Schur inverse's unresolved
critical pairs.

Exactness.  Off the locus, the algebra derived at the point is the
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
than with the rules derived there, and the command line reruns a command
at the point when a read point exceeds the step bound.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, OrientationFailure
from .field import RatFunc
from .freealg import NCPoly, RewriteRule, RewriteSystem
from .laurent import Substitution
from .rtt import DerivedAlgebra, QuotientAlgebra


class SpecializedSystem(RewriteSystem):
    """A symbolic rewrite system read at a point.

    value maps a symbolic coefficient to its value at the point.  The
    system shares the symbolic system's rules, so rule_list(), find_redex
    and the critical pairs are the symbolic ones, and rewriting runs in the
    symbolic system and its word cache.  What leaves the system is read at
    the point: normal_form (and with it reduces_to_zero),
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
        value = self.value
        out = {}
        for key, c in elem.items():
            c = value(c)
            if not c.is_zero():
                out[key] = c
        return out

    def reducer(self) -> RewriteSystem:
        return self.symbolic

    def like(self, other: RewriteSystem) -> RewriteSystem:
        return SpecializedSystem(other, self.value)

    def normal_form(self, poly: NCPoly, max_steps: int = None) -> NCPoly:
        return self.evaluate(self.symbolic.normal_form(poly, max_steps))

    def _verdict(self, word, p1, r1, p2, r2):
        split = self.symbolic._verdict(word, p1, r1, p2, r2)
        if split is not None:
            split = (self.evaluate(split[0]), self.evaluate(split[1]))
            if split[0] == split[1]:
                return None
        return split


class SpecializedAlgebra(DerivedAlgebra):
    """A symbolic DerivedAlgebra read at a rational point (see read).

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
        return alg if alg is not None else _derived_at(self.source, self.point)

    def quotient(self) -> QuotientAlgebra:
        symbolic = QuotientAlgebra(self.source)
        if on_locus(symbolic.locus, self.system.value):
            return _derived_at(self.source, self.point).quotient()
        return SpecializedQuotient(symbolic, self,
                                   SpecializedSystem(symbolic.system, self.system.value))

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["bindings"] = {k: str(v) for k, v in sorted(self.point.items())}
        return out


class SpecializedQuotient(QuotientAlgebra):
    """A symbolic QuotientAlgebra read at its parent's point."""

    def __init__(self, source: QuotientAlgebra, parent: SpecializedAlgebra,
                 system: SpecializedSystem):
        self.__dict__.update(source.__dict__)
        self.parent = parent
        self.system = system


def substitution(bindings: dict):
    """The Substitution of bindings if they are a rational point, else None."""
    if not bindings:
        return None
    values = {}
    for name, v in bindings.items():
        if isinstance(v, RatFunc):
            if v.variables():
                return None
            v = v.const_value()
        elif not isinstance(v, (int, Fraction)):
            return None
        values[name] = v
    return Substitution(values)


def on_locus(locus: list, value) -> bool:
    """Whether every value of some locus entry vanishes, or one is undefined,
    under value."""
    try:
        return not all(any(not value(c).is_zero() for c in entry) for entry in locus)
    except DivisionByZero:
        return True


def read(alg: DerivedAlgebra, point: dict):
    """alg, derived symbolically, read at the rational point, or None on
    its locus (see the module docstring for why this is exact)."""
    value = substitution(point)
    if on_locus(alg.locus, value):
        return None
    return SpecializedAlgebra(alg, point, SpecializedSystem(alg.system, value))


def _derived_at(symbolic: DerivedAlgebra, point: dict, extend: bool = True):
    return DerivedAlgebra(symbolic.rmat, symbolic.convention, point, extend)


def derive(convention: str = "plain", bindings: dict = None, extend: bool = True,
           read_off: bool = True) -> DerivedAlgebra:
    """DerivedAlgebra(convention=..., bindings=..., extend=...), read off
    the symbolic derivation when read_off is set and bindings are a
    rational point off its locus.

    The graded table is read before it is extended, so a point on its
    locus costs no symbolic extension.  A convention that fails to orient
    symbolically fails at such a point with the same message.  A point on
    the locus, and any other bindings, are derived at the bindings.
    """
    value = substitution(bindings) if read_off else None
    if value is None:
        return DerivedAlgebra(convention=convention, bindings=bindings, extend=extend)
    try:
        graded = DerivedAlgebra(convention=convention, extend=False)
    except OrientationFailure as exc:
        if not on_locus(exc.locus, value):
            raise
        return DerivedAlgebra(convention=convention, bindings=bindings, extend=extend)
    alg = read(graded, bindings)
    if alg is None:
        return _derived_at(graded, bindings, extend)
    return alg.extended() if extend else alg
