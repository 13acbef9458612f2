"""Free associative algebra with coefficient field, plus term rewriting.

Elements are dicts mapping words (tuples of generator names) to nonzero
coefficients of the numeric tower in laurent.py: Laurent values in
Q[m,n,k,p^±1], or RatFunc values where a coefficient leaves that ring.
The entry points (nc_gen, nc_word, nc_scale, RewriteRule,
RewriteSystem.from_dict and normal_form's input) pass coefficients
through laurent.coerce.  Elements of the tensor square are the same kind of
dict keyed by pairs of words, so nc_add, nc_scale, nc_zero and nc_is_zero
serve them unchanged; only the operations that look inside a key (t_simple,
t_mul, tensor_normal_form, t_str) are tensor-specific.  Every sum of
coefficients goes through field.add_into, which drops keys whose
coefficient cancels to zero.

A RewriteSystem holds oriented rules lhs -> rhs where the lhs is a single
word and every rhs word is strictly smaller in the graded lexicographic
order induced by the generator sequence; that ordering is compatible with
concatenation, so rewriting terminates and normal forms are well defined
whenever the system is confluent.  Confluence itself is checked by
resolving all critical pairs (overlap and inclusion ambiguities); each
pair's verdict, and the report per degree bound, is memoized until the
next add_rule.

evaluate, value, reducer and like are the hooks by which
specialize.SpecializedSystem reads a symbolic system at a rational point;
here they are identities.

A hard step budget (JFORGE_MAX_STEPS, default one million) backstops the
termination argument against misbuilt rule sets; a value that is not an
integer of at least 1 is a UsageError.
"""

from __future__ import annotations

import copy
import os

from .errors import DegreeOverflow, NonTerminating, OrientationFailure, UsageError
from .field import add_into
from .grammar import parse, serialize
from .laurent import L_ONE, coerce
from .report import CheckReport

Word = tuple
NCPoly = dict

DEFAULT_MAX_STEPS = 10 ** 6


def _max_steps_default() -> int:
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


def nc_gen(name: str, coeff=None) -> NCPoly:
    return {(name,): L_ONE if coeff is None else coerce(coeff)}


def nc_word(word, coeff=None) -> NCPoly:
    return {tuple(word): L_ONE if coeff is None else coerce(coeff)}


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


def nc_substitute_params(a: NCPoly, bindings: dict) -> NCPoly:
    out: NCPoly = {}
    for w, c in a.items():
        cc = c.substitute(bindings)
        if not cc.is_zero():
            out[w] = cc
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
        self.max_steps = _max_steps_default()
        self.rules: dict = {}
        self._lhs_lengths: tuple = ()
        self._cache: dict = {}
        self._confluence: dict = {}
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
        self._confluence = {}
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

    def _nf_word(self, word: Word, budget: list) -> NCPoly:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        hit = self.find_redex(word)
        if hit is None:
            result = {word: L_ONE}
        else:
            pos, rule = hit
            head = word[:pos]
            tail = word[pos + len(rule.lhs):]
            acc: NCPoly = {}
            for rw, rc in rule.rhs.items():
                budget[0] -= 1
                if budget[0] < 0:
                    raise NonTerminating(
                        f"rewriting exceeded {self.max_steps} steps"
                    )
                piece = self._nf_word(head + rw + tail, budget)
                for w, c in piece.items():
                    add_into(acc, w, c * rc)
            result = acc
        self._cache[word] = result
        return result

    def normal_form(self, poly: NCPoly, max_steps: int = None) -> NCPoly:
        budget = [max_steps or self.max_steps]
        out: NCPoly = {}
        for word, coeff in poly.items():
            if coeff.is_zero():
                continue
            coeff = coerce(coeff)
            try:
                piece = self._nf_word(tuple(word), budget)
            except RecursionError:
                # _nf_word recurses once per rewrite along a word; _cache
                # only holds finished words, so nothing half-built remains
                raise DegreeOverflow(
                    f"word of length {len(word)} is too deep to rewrite"
                ) from None
            for w, c in piece.items():
                add_into(out, w, c * coeff)
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
        applications distinct.
        """
        rules = self.rule_list()
        for r1 in rules:
            for r2 in rules:
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
        splits = [self._verdict(*pair)
                  for r1 in every
                  for r2 in (every if r1.lhs in new else rules)
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

        The report is computed once per max_degree and rule set, each pair's
        verdict once per rule set (shared with new_pairs_unresolved); callers
        get a copy, so the memoized report cannot be changed from outside.
        """
        report = self._confluence.get(max_degree)
        if report is None:
            report = self._confluence[max_degree] = self._resolve_pairs(max_degree)
        return copy.deepcopy(report)

    def _resolve_pairs(self, max_degree) -> CheckReport:
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

    def value(self, c):
        """One coefficient read at this system's point: c itself here."""
        return c

    def reducer(self) -> "RewriteSystem":
        """The system whose rules rewrite: this one here."""
        return self

    def like(self, other: "RewriteSystem") -> "RewriteSystem":
        """other, a system built from this one's rules, read at this
        system's point: other itself here."""
        return other

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

    @classmethod
    def from_dict(cls, data: dict) -> "RewriteSystem":
        out = cls(tuple(data["order"]))
        for entry in data["rules"]:
            rhs = {
                tuple(t["word"]): coerce(parse(t["coeff"]))
                for t in entry["rhs"]
            }
            out.add_rule(RewriteRule(tuple(entry["lhs"]), rhs, entry.get("tag", "")))
        return out


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


def t_str(a: dict, generators: tuple = ()) -> str:
    if not a:
        return "0"
    parts = []
    for (wl, wr) in sorted(a, key=lambda k: (k[0], k[1])):
        c = serialize(a[(wl, wr)])
        left = "*".join(wl) if wl else "1"
        right = "*".join(wr) if wr else "1"
        parts.append(f"({c})·({left} (x) {right})")
    return " + ".join(parts)
