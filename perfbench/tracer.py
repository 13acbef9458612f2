"""Per-layer tracing installed from outside the program, in the child only.

Each target function is replaced, in every ``jforge`` module that holds it
by name (and under every alias in its class), by a wrapper that keeps a
time stack: a call's self time is its duration minus the time its wrapped
callees took.  Hot arithmetic layers (``poly``, ``field``, ``grammar``,
rewriting steps) only feed aggregate counters, because a stored span per
call would cost more than the call.  Coarse layers also record a span
``(id, key, start, end, parent, job, self)``; spans stay in memory and the
benchmark writes them out when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import time

# stat layout: [calls, self seconds, extra counter 1, extra counter 2]


def _gcd_is_one(stat, args, result):
    if result == {(): 1}:
        stat[2] += 1


def _is_unit_or_zero(x) -> bool:
    num = getattr(x, "num", None)
    if num is None:
        return x in (0, 1, -1)
    return not num or (x.den == {(): 1} and num in ({(): 1}, {(): -1}))


def _mul_is_trivial(stat, args, result):
    if _is_unit_or_zero(args[0]) or _is_unit_or_zero(args[1]):
        stat[2] += 1


def _pairs_resolved(stat, args, result):
    # the report lists at most five unresolved words; exact while <= 5 fail
    check = result.checks[0]
    candidates = check.details["candidates"]
    stat[2] += candidates
    stat[3] += candidates - len(check.details["unresolved"])


# (key, module, function or Class.method, spans, extra-counter hook,
#  workloads on which the wrapper must see at least one call)
TARGETS = (
    ("poly.pgcd", "jforge.poly", "pgcd", False, _gcd_is_one, ("pipeline", "contraction")),
    ("poly.pmul", "jforge.poly", "pmul", False, None, ("pipeline", "contraction")),
    ("poly.pint_normalize", "jforge.poly", "pint_normalize", False, None, ("pipeline", "contraction")),
    ("poly.pdiv_exact", "jforge.poly", "pdiv_exact", False, None, ("pipeline", "contraction")),
    ("field.ratfunc_init", "jforge.field", "RatFunc.__init__", False, None, ("pipeline", "specialized")),
    ("field.mul", "jforge.field", "RatFunc.__mul__", False, _mul_is_trivial, ("pipeline", "specialized")),
    ("field.add", "jforge.field", "RatFunc.__add__", False, None, ("pipeline", "specialized")),
    ("field.substitute", "jforge.field", "RatFunc.substitute", False, None, ("pipeline", "contraction")),
    ("field.laurent", "jforge.field", "laurent_expand", False, None, ("contraction",)),
    ("grammar.parse", "jforge.grammar", "parse", False, None, ("specialized", "contraction")),
    ("grammar.serialize", "jforge.grammar", "serialize", False, None, ("specialized",)),
    ("linalg.solve_dense", "jforge.linalg", "solve_dense", True, None, ("pipeline", "specialized")),
    ("linalg.rref_sparse", "jforge.linalg", "rref_sparse", True, None, ("pipeline", "specialized")),
    ("linalg.mat_mul", "jforge.linalg", "mat_mul", True, None, ("contraction",)),
    ("linalg.mat_inverse", "jforge.linalg", "mat_inverse", True, None, ("contraction",)),
    ("rmat.qybe", "jforge.rmat", "qybe_check", True, None, ("contraction",)),
    ("rmat.conjugate", "jforge.rmat", "conjugate", True, None, ("contraction",)),
    ("contraction.contract", "jforge.contraction", "contract", True, None, ("contraction",)),
    ("contraction.probe", "jforge.contraction", "probe_divergence", True, None, ("contraction",)),
    ("freealg.normal_form", "jforge.freealg", "RewriteSystem.normal_form", False, None, ("pipeline", "specialized")),
    ("freealg.confluence", "jforge.freealg", "RewriteSystem.confluence_report", True, _pairs_resolved, ("pipeline", "specialized")),
    ("freealg.tensor_nf", "jforge.freealg", "tensor_normal_form", True, None, ("pipeline", "specialized")),
    ("freealg.add_rule", "jforge.freealg", "RewriteSystem.add_rule", False, None, ("pipeline", "specialized")),
    ("rtt.derive", "jforge.rtt", "DerivedAlgebra.__init__", True, None, ("pipeline", "specialized")),
    ("rtt.table", "jforge.rtt", "derive_relation_table", True, None, ("pipeline", "specialized")),
    ("rtt.append_inverse", "jforge.rtt", "append_inverse", True, None, ("pipeline", "specialized")),
    ("rtt.block_inverse", "jforge.rtt", "solve_block_inverse", True, None, ("pipeline", "specialized")),
    ("rtt.resolve_convention", "jforge.rtt", "resolve_convention", True, None, ("specialized",)),
    ("rtt.verify_reference", "jforge.rtt", "verify_reference", True, None, ("pipeline", "specialized")),
    ("rtt.rtt_zero", "jforge.rtt", "rtt_zero_report", True, None, ("pipeline", "specialized")),
    ("rtt.quotient", "jforge.rtt", "QuotientAlgebra.__init__", True, None, ("pipeline", "specialized")),
    ("hopf.bialgebra", "jforge.hopf", "check_bialgebra", True, None, ("pipeline", "specialized")),
    ("hopf.hopf_ideal", "jforge.hopf", "hopf_ideal_check", True, None, ("pipeline", "specialized")),
    ("hopf.antipode", "jforge.hopf", "check_antipode_axiom", True, None, ("pipeline", "specialized")),
    ("hopf.qdet", "jforge.hopf", "qdet_checks", True, None, ("pipeline", "specialized")),
    ("hopf.delta_centrality", "jforge.hopf", "delta_centrality", True, None, ("pipeline", "specialized")),
    ("hopf.coaction", "jforge.hopf", "coaction_covariance", True, None, ("pipeline", "specialized")),
    ("report.render", "jforge.report", "CheckReport.to_json", True, None, ("pipeline", "specialized", "contraction")),
    ("report.render", "jforge.report", "CheckReport.to_text", True, None, ()),
)


class Tracer:
    """Aggregates and spans of one child process (one CLI call of a job)."""

    def __init__(self, job: int):
        self.job = job
        self.stats = {}
        self.spans = []
        self._stack = [[0.0]]
        self._open = [None]
        self._ids = itertools.count()

    def wrap(self, key: str, fn, spans: bool, hook):
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0])
        stack, clock = self._stack, time.perf_counter

        if not spans:
            def hot(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    stack[-1][0] += dur
                    stat[0] += 1
                    stat[1] += dur - frame[0]
                if hook is not None:
                    hook(stat, args, result)
                return result
            return hot

        out, opened, ids, job = self.spans, self._open, self._ids, self.job

        def coarse(*args, **kwargs):
            sid, parent = next(ids), opened[0]
            opened[0] = sid
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stack[-1][0] += dur
                opened[0] = parent
                stat[0] += 1
                stat[1] += dur - frame[0]
                out.append((sid, key, start, end, parent, job, dur - frame[0]))
            if hook is not None:
                hook(stat, args, result)
            return result
        return coarse

    def install(self):
        """Wrap every target wherever a loaded jforge module holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "jforge" or name.startswith("jforge.")]
        for key, modname, qualname, spans, hook, _used_by in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                holders = [getattr(owner, cls_name)]
                original = holders[0].__dict__[attr]
            else:
                holders = modules
                original = getattr(owner, attr)
            wrapper = self.wrap(key, original, spans, hook)
            patched = 0
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        patched += 1
            if not patched:
                raise RuntimeError(f"trace target {modname}.{qualname} not found")
