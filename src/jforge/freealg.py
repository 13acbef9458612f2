"""Free associative algebra with coefficient field, plus term rewriting.

Elements are dicts mapping words (tuples of generator names) to nonzero
coefficients of the numeric tower in laurent.py: Laurent values in
Q[m,n,k,p^±1], or RatFunc values where a coefficient leaves that ring.
laurent.coerce converts coefficients where they enter here: nc_scale's
factor and RewriteRule.  Elements of the tensor square are the same kind
of dict keyed by pairs of words, so nc_add, nc_scale, nc_zero and
nc_is_zero serve them unchanged; only the operations that look inside a
key (t_simple, t_mul, tensor_normal_form, t_str) are tensor-specific.
Every sum of coefficients goes through field.add_into, which drops keys
whose coefficient cancels to zero.

A RewriteSystem holds oriented rules lhs -> rhs where the lhs is a single
word and every rhs word is strictly smaller in the graded lexicographic
order induced by the generator sequence; that ordering is compatible with
concatenation, so rewriting terminates and normal forms are well defined
whenever the system is confluent.  Confluence itself is checked by
resolving all critical pairs (overlap and inclusion ambiguities), found
through a first-letter index of the lhs words; each pair's verdict is
memoized until the next add_rule, so a repeated report normalizes nothing.

specialize.SpecializedSystem reads a symbolic system under --set bindings
through two hooks, identities here: evaluate reads an element under them
(nc_evaluate with a laurent.Substitution), and reducer is the system whose
rules rewrite.

A hard step budget (JFORGE_MAX_STEPS, default one million) backstops the
termination argument against misbuilt rule sets; a value that is not an
integer of at least 1 is a UsageError.  step_bound() is its one parser.
Each normal form gets the whole budget and spends one step per rhs term
rewritten.  The word cache keeps each word's steps beside its normal form
and charges them again on every hit, so a normal form costs the size of
its rewrite tree, counted as if nothing were cached: the budget depends on
the input alone, not on what was normalized before.
"""

from __future__ import annotations

import os

from .errors import DegreeOverflow, NonTerminating, OrientationFailure, UsageError
from .field import add_into
from .grammar import serialize
from .laurent import L_ONE, coerce
from .report import CheckReport

Word = tuple
NCPoly = dict

DEFAULT_MAX_STEPS = 10 ** 6


def step_bound() -> int:
    """The rewrite step bound: JFORGE_MAX_STEPS, else DEFAULT_MAX_STEPS."""
    raw = os.environ.get("JFORGE_MAX_STEPS")
    if raw is None:
        return DEFAULT_MAX_STEPS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"JFORGE_MAX_STEPS must be an integer >= 1, got {raw!r}")
    return value


# -- element helpers --------------------------------------------------------

def nc_zero() -> NCPoly:
    return {}


def nc_one() -> NCPoly:
    return {(): L_ONE}


def nc_gen(name: str, coeff=L_ONE) -> NCPoly:
    return {(name,): coeff}


def nc_word(word, coeff=L_ONE) -> NCPoly:
    return {tuple(word): coeff}


def nc_is_zero(p: NCPoly) -> bool:
    return not p


def nc_add(a: NCPoly, b: NCPoly) -> NCPoly:
    out = dict(a)
    for w, c in b.items():
        add_into(out, w, c)
    return out


def nc_neg(a: NCPoly) -> NCPoly:
    return {w: -c for w, c in a.items()}


def nc_sub(a: NCPoly, b: NCPoly) -> NCPoly:
    return nc_add(a, nc_neg(b))


def nc_scale(a: NCPoly, c) -> NCPoly:
    c = coerce(c)
    if c.is_zero():
        return {}
    return {w: v * c for w, v in a.items()}


def nc_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    out: NCPoly = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            add_into(out, wa + wb, ca * cb)
    return out


def nc_product(*factors) -> NCPoly:
    out = nc_one()
    for f in factors:
        out = nc_mul(out, f)
    return out


def nc_evaluate(elem: dict, value) -> dict:
    """elem, an algebra or tensor element, with value applied to every
    coefficient; the coefficients it sends to zero are dropped."""
    out = {}
    for key, c in elem.items():
        c = value(c)
        if not c.is_zero():
            out[key] = c
    return out


def word_touches(word: Word, letters) -> bool:
    return any(g in letters for g in word)


def nc_str(p: NCPoly, generators: tuple = ()) -> str:
    """Deterministic text for diagnostics: terms sorted by descending word."""
    if not p:
        return "0"
    index = {g: i for i, g in enumerate(generators)}
    def key(w):
        return (len(w), tuple(index.get(g, -1) for g in w), w)
    parts = []
    for w in sorted(p, key=key, reverse=True):
        c = serialize(p[w])
        body = "*".join(w) if w else "1"
        if c == "1":
            parts.append(body)
        elif c == "-1":
            parts.append(f"-{body}")
        else:
            wrap = f"({c})" if ("+" in c or (" - " in c)) else c
            parts.append(f"{wrap}*{body}" if w else wrap)
    return " + ".join(parts).replace("+ -", "- ")


# -- rewriting ---------------------------------------------------------------

class RewriteRule:
    """One oriented rule: the word lhs rewrites to the combination rhs."""

    __slots__ = ("lhs", "rhs", "tag")

    def __init__(self, lhs, rhs: NCPoly, tag: str = ""):
        self.lhs = tuple(lhs)
        self.rhs = {tuple(w): coerce(c) for w, c in rhs.items() if not c.is_zero()}
        self.tag = tag

    def __repr__(self):
        return f"RewriteRule({'*'.join(self.lhs)} -> {nc_str(self.rhs)})"


def _partners(rules: list):
    """The function taking a rule r1 to the rules of rules whose lhs starts
    with a letter of r1.lhs, in the order of rules: the only ones that can
    overlap r1 or lie inside it (see RewriteSystem.critical_pairs)."""
    by_first: dict = {}
    for i, rule in enumerate(rules):
        by_first.setdefault(rule.lhs[0], []).append(i)
    def partners(r1: RewriteRule) -> list:
        return [rules[i] for i in sorted(i for g in set(r1.lhs)
                                         for i in by_first.get(g, ()))]
    return partners


def _ambiguities(r1: RewriteRule, r2: RewriteRule):
    """The critical pairs of r1 at position 0 and r2 inside or after it."""
    l1, l2 = r1.lhs, r2.lhs
    # proper overlap: suffix of l1 equals prefix of l2
    for k in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - k:] == l2[:k]:
            yield l1 + l2[k:], 0, r1, len(l1) - k, r2
    # inclusion: l2 strictly inside l1
    if len(l2) < len(l1):
        for pos in range(len(l1) - len(l2) + 1):
            if l1[pos:pos + len(l2)] == l2:
                yield l1, 0, r1, pos, r2


class RewriteSystem:
    """Oriented rules over an ordered generator alphabet.

    The generator sequence fixes the graded lexicographic word order used
    both for orientation checks and for choosing pivot words upstream.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        self.index = {g: i for i, g in enumerate(self.generators)}
        self.max_steps = step_bound()
        self.rules: dict = {}
        self._lhs_lengths: tuple = ()
        self._cache: dict = {}
        self._verdicts: dict = {}

    # -- word order ------------------------------------------------------
    def word_key(self, word: Word) -> tuple:
        return (len(word), tuple(self.index[g] for g in word))

    def word_smaller(self, a: Word, b: Word) -> bool:
        return self.word_key(a) < self.word_key(b)

    # -- rule management ----------------------------------------------------
    def add_rule(self, rule: RewriteRule):
        for g in rule.lhs:
            if g not in self.index:
                raise OrientationFailure(f"unknown generator {g!r} in rule lhs")
        for w in rule.rhs:
            for g in w:
                if g not in self.index:
                    raise OrientationFailure(f"unknown generator {g!r} in rule rhs")
            if not self.word_smaller(w, rule.lhs):
                raise OrientationFailure(
                    f"rule {'*'.join(rule.lhs)} has non-decreasing term {'*'.join(w) or '1'}"
                )
        if rule.lhs in self.rules:
            raise OrientationFailure(f"duplicate rule for {'*'.join(rule.lhs)}")
        self.rules[rule.lhs] = rule
        self._lhs_lengths = tuple(sorted({len(l) for l in self.rules}, reverse=True))
        self._cache = {}
        self._verdicts = {}

    def rule_list(self) -> list:
        return [self.rules[lhs] for lhs in sorted(self.rules, key=self.word_key)]

    # -- reduction ------------------------------------------------------------
    def find_redex(self, word: Word):
        """Leftmost, longest-match position: (pos, rule) or None."""
        n = len(word)
        for pos in range(n):
            for length in self._lhs_lengths:
                if pos + length > n:
                    continue
                rule = self.rules.get(word[pos:pos + length])
                if rule is not None:
                    return pos, rule
        return None

    def is_normal_word(self, word: Word) -> bool:
        return self.find_redex(word) is None

    def _exceeded(self) -> NonTerminating:
        return NonTerminating(f"rewriting exceeded {self.max_steps} steps")

    def _nf_word(self, word: Word, left: int) -> tuple:
        """(normal form, steps) of word, where steps is the size of its
        rewrite tree; the cache keeps the same pair, so a hit costs what
        the rewriting did.  Raises once its own rewrites overrun left; the
        caller checks the steps of a hit (see normal_form)."""
        entry = self._cache.get(word)
        if entry is not None:
            return entry
        hit = self.find_redex(word)
        if hit is None:
            entry = ({word: L_ONE}, 0)
        else:
            pos, rule = hit
            head = word[:pos]
            tail = word[pos + len(rule.lhs):]
            acc: NCPoly = {}
            steps = 0
            for rw, rc in rule.rhs.items():
                steps += 1
                if steps > left:
                    raise self._exceeded()
                piece, n = self._nf_word(head + rw + tail, left - steps)
                steps += n
                for w, c in piece.items():
                    add_into(acc, w, c if rc is L_ONE else c * rc)
            entry = (acc, steps)
        self._cache[word] = entry
        return entry

    def normal_form(self, poly: NCPoly) -> NCPoly:
        """The normal form of poly, within max_steps steps.

        The steps of a cached word count again, so a bound is exceeded
        exactly when the rewrite trees of poly's words, as if nothing were
        cached, have more than max_steps edges together.  _nf_word checks
        only its own rewrites; the steps a hit adds are checked at the next
        rewrite of its caller, or here.
        """
        left = self.max_steps
        out: NCPoly = {}
        for word, coeff in poly.items():
            if coeff.is_zero():
                continue
            try:
                piece, steps = self._nf_word(tuple(word), left)
            except RecursionError:
                # _nf_word recurses once per rewrite along a word; _cache
                # only holds finished words, so nothing half-built remains
                raise DegreeOverflow(
                    f"word of length {len(word)} is too deep to rewrite"
                ) from None
            left -= steps
            if left < 0:
                raise self._exceeded()
            for w, c in piece.items():
                add_into(out, w, c if coeff is L_ONE else c * coeff)
        return out

    def reduces_to_zero(self, poly: NCPoly) -> bool:
        return nc_is_zero(self.normal_form(poly))

    def apply_at(self, word: Word, pos: int, rule: RewriteRule) -> NCPoly:
        """One rewrite of rule at a known position; no further reduction."""
        if word[pos:pos + len(rule.lhs)] != rule.lhs:
            raise ValueError("rule does not match at position")
        head, tail = word[:pos], word[pos + len(rule.lhs):]
        return {head + rw + tail: rc for rw, rc in rule.rhs.items()}

    # -- confluence --------------------------------------------------------------
    def critical_pairs(self):
        """All overlap and inclusion ambiguities between rule lhs words.

        Yields (word, pos1, rule1, pos2, rule2) with pos1 <= pos2 and the two
        applications distinct, rule1 and then rule2 in rule_list() order.
        rule1 is paired only with the rules whose lhs starts with one of its
        letters, found in a first-letter index built once per enumeration.
        No pair is lost: an overlap puts a prefix of rule2's lhs at the end
        of rule1's, and an inclusion puts all of rule2's lhs inside it, so
        either way rule2's first letter occurs in rule1's lhs.
        """
        rules = self.rule_list()
        partners = _partners(rules)
        for r1 in rules:
            for r2 in partners(r1):
                yield from _ambiguities(r1, r2)

    def new_pairs_unresolved(self, rules, max_degree: int = None) -> list:
        """The (nf1, nf2) splits of the critical pairs involving one of
        rules that do not resolve.

        Only the pairs (r1, r2) with r1 or r2 among these rules of the
        system are enumerated, up to max_degree letters.  The other pairs
        are not checked, so an empty list stands for confluence_report only
        where the caller knows their verdicts cannot have changed (see
        DerivedAlgebra._still_confluent).  The verdicts are memoized.
        """
        new = {r.lhs for r in rules}
        every = self.rule_list()
        any_partner, new_partner = _partners(every), _partners(rules)
        splits = [self._verdict(*pair)
                  for r1 in every
                  for r2 in (any_partner if r1.lhs in new else new_partner)(r1)
                  for pair in _ambiguities(r1, r2)
                  if max_degree is None or len(pair[0]) <= max_degree]
        return [split for split in splits if split is not None]

    def _verdict(self, word, p1, r1, p2, r2):
        """None if the pair resolves, else its two normal forms (memoized)."""
        key = (word, p1, r1.lhs, p2, r2.lhs)
        if key not in self._verdicts:
            nf1 = self.normal_form(self.apply_at(word, p1, r1))
            nf2 = self.normal_form(self.apply_at(word, p2, r2))
            self._verdicts[key] = None if nf1 == nf2 else (nf1, nf2)
        return self._verdicts[key]

    def confluence_report(self, max_degree: int = None) -> CheckReport:
        """Resolve every critical pair whose word has at most max_degree letters.

        Each pair's verdict is computed once per rule set (shared with
        new_pairs_unresolved).
        """
        report = CheckReport("confluence")
        candidates = 0
        failures = []
        for pair in self.critical_pairs():
            if max_degree is not None and len(pair[0]) > max_degree:
                continue
            candidates += 1
            split = self._verdict(*pair)
            if split is not None:
                failures.append({
                    "word": list(pair[0]),
                    "first": nc_str(split[0], self.generators),
                    "second": nc_str(split[1], self.generators),
                })
        report.add(
            "critical-pairs-resolve",
            not failures,
            candidates=candidates,
            max_degree=max_degree,
            unresolved=failures[:5],
        )
        return report

    # -- quotient -------------------------------------------------------------
    def quotient(self, killed) -> "RewriteSystem":
        """Project onto the quotient by the ideal of words touching killed.

        Rules whose lhs touches a killed generator are dropped; killed words
        are erased from the remaining right-hand sides.
        """
        killed = set(killed)
        kept = tuple(g for g in self.generators if g not in killed)
        out = RewriteSystem(kept)
        for rule in self.rule_list():
            if word_touches(rule.lhs, killed):
                continue
            rhs = {w: c for w, c in rule.rhs.items() if not word_touches(w, killed)}
            out.add_rule(RewriteRule(rule.lhs, rhs, rule.tag))
        return out

    # -- reading at a point -----------------------------------------------------
    def evaluate(self, elem: dict) -> dict:
        """elem, an algebra or tensor element, read at this system's point:
        elem itself here."""
        return elem

    def reducer(self) -> "RewriteSystem":
        """The system whose rules rewrite: this one here."""
        return self

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict:
        rules = []
        for rule in self.rule_list():
            rhs = [
                {"word": list(w), "coeff": serialize(c)}
                for w, c in sorted(self.evaluate(rule.rhs).items(),
                                   key=lambda kv: self.word_key(kv[0]))
            ]
            rules.append({"lhs": list(rule.lhs), "rhs": rhs, "tag": rule.tag})
        return {"order": list(self.generators), "rules": rules}


# -- tensor square --------------------------------------------------------------
#
# Tensor elements are dicts keyed by (left word, right word); add, scale,
# zero and the zero test are the nc_* operations.

def t_simple(left: NCPoly, right: NCPoly) -> dict:
    """The elementary tensor of two algebra elements, expanded bilinearly."""
    out: dict = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            add_into(out, (wl, wr), cl * cr)
    return out


def t_mul(a: dict, b: dict) -> dict:
    """Componentwise product in the tensor square algebra."""
    out: dict = {}
    for (la, ra), ca in a.items():
        for (lb, rb), cb in b.items():
            add_into(out, (la + lb, ra + rb), ca * cb)
    return out


def tensor_normal_form(elem: dict, system: RewriteSystem) -> dict:
    """Normal form on both tensor legs, expanded bilinearly.

    Terms are grouped by their left word: each distinct left word is
    reduced once, the right legs sharing it are reduced together as one
    polynomial carrying their coefficients, and each (left, right) pair of
    normal words costs one product.  The legs are reduced by the system's
    reducer() and the sum is read at its point once, at the end.
    """
    reduce = system.reducer().normal_form
    groups: dict = {}
    for (wl, wr), c in elem.items():
        groups.setdefault(tuple(wl), {})[tuple(wr)] = c
    out: dict = {}
    for wl, rights in groups.items():
        left = reduce({wl: L_ONE})
        right = reduce(rights)
        for ll, cl in left.items():
            for rr, cr in right.items():
                add_into(out, (ll, rr), cl * cr)
    return system.evaluate(out)


def t_str(a: dict) -> str:
    if not a:
        return "0"
    parts = []
    for (wl, wr) in sorted(a, key=lambda k: (k[0], k[1])):
        c = serialize(a[(wl, wr)])
        left = "*".join(wl) if wl else "1"
        right = "*".join(wr) if wr else "1"
        parts.append(f"({c})·({left} (x) {right})")
    return " + ".join(parts)
