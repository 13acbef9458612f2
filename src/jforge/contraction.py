"""Singular limits: twist conjugation, parameter schedule, Laurent limit.

The pipeline is conjugate -> substitute -> expand -> limit.  A Schedule
binds parameters to expressions in a limit variable (conventionally eps);
the twist strength eta is bound to a pole like 1/eps while the deformation
parameters approach their degenerate values linearly.  Divergences cancel
entry by entry exactly when the twist is placed correctly, which is the
whole point: contract() either returns the finite limit matrix or raises
PoleError carrying the entries that blew up and their lowest Laurent
coefficients.

contract() and probe_divergence() read the same entries, from one loop
(_entries) that conjugates, substitutes and expands each entry only as far
as its reader looks: order 0 for contract(), because the limit reads the
pole terms for its diagnostics and the constant term for the value, and
order -1 for probe_divergence(), because a record holds only pole terms.
Both list pole terms through LaurentSeries.pole_terms().

The substitution and the expansion are one step, on truncated power
series (_Expansion).  Each bound value v is x^val(v) times a power series
B_v with B_v(0) != 0, val(v) read exactly from the lowest degrees in x of
its numerator and denominator.  A term c*x^e*u*prod v^(e_v) of a Laurent
entry (u free of x and of the bound v) is x^V * c*u*prod B_v^(e_v) with
V = e + sum e_v*val(v), so its coefficients through degree order are those
of the product through relative degree order - V; it is skipped when V >
order.  A product, power or inverse of series known through relative
degree R is known through R (coefficient t depends on coefficients 0..t
of the factors), so each bound value is expanded once, through the
largest relative degree a term needs, and the sum of the terms is the
entry's series, exact through the order whatever cancels.  An entry that
is no Laurent is substituted and reduced as a RatFunc.  Every entry is
checked before any is expanded, so a pole that the substitution meets (a
bound value 0 under a negative power) raises before any entry is read.

A schedule's digest is the SHA-256 of its file, from the interpreter's
built-in module: hashlib would load OpenSSL for one small file.
"""

from __future__ import annotations

import json
import os

try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import DivisionByZero, PoleError, ScheduleError
from .field import (LaurentSeries, RatFunc, laurent_expand, limit_at_zero,
                    series_inverse, series_mul)
from .grammar import GrammarError, parse, serialize
from .laurent import L_ONE, L_ZERO, Laurent
from .poly import pexponents, split_monomial
from .report import CheckReport
from .rmat import KRON_ORDER_2, TensorMat, conjugate


class Schedule:
    """Parameter bindings approaching a limit as limit_var -> 0."""

    def __init__(self, limit_var: str, bindings: dict, description: str = ""):
        if not limit_var.isidentifier():
            raise ScheduleError(f"limit variable {limit_var!r} is not an identifier")
        self.limit_var = limit_var
        self.description = description
        self.bindings = {}
        for name, expr in bindings.items():
            if not name.isidentifier():
                raise ScheduleError(f"bound name {name!r} is not an identifier")
            if name == limit_var:
                raise ScheduleError(f"cannot bind the limit variable {name!r}")
            self.bindings[name] = expr if isinstance(expr, RatFunc) else parse(str(expr))
        # one-shot substitution: bound names may not reappear on any rhs
        bound = set(self.bindings)
        for name, expr in self.bindings.items():
            stale = expr.variables() & bound
            if stale:
                raise ScheduleError(
                    f"binding for {name!r} mentions bound parameter(s) "
                    f"{sorted(stale)}"
                )

    def survivors(self) -> set:
        """Parameters free after substitution, other than the limit variable."""
        out = set()
        for expr in self.bindings.values():
            out |= expr.variables()
        out.discard(self.limit_var)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        if not isinstance(data, dict):
            raise ScheduleError("schedule must be a JSON object")
        try:
            limit_var = data["limit_var"]
            bindings = data["bindings"]
        except KeyError as exc:
            raise ScheduleError(f"schedule is missing {exc}") from exc
        if not isinstance(limit_var, str):
            raise ScheduleError(f"limit_var must be a string, got {json.dumps(limit_var)}")
        if not isinstance(bindings, dict):
            raise ScheduleError("bindings must be an object")
        for name, expr in bindings.items():
            if not isinstance(expr, str):
                raise ScheduleError(f"binding {name!r} must be an expression string, "
                                    f"got {json.dumps(expr)}")
        try:
            return cls(limit_var, bindings, data.get("description", ""))
        except GrammarError as exc:
            raise ScheduleError(f"unparseable binding: {exc}") from exc


def read_schedule(path: str) -> tuple:
    """(schedule, sha256 hex of the file), from one read of path.

    The bytes are hashed as read and decoded as UTF-8; a file that cannot
    be read, decoded or parsed is a ScheduleError.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScheduleError(f"cannot read schedule {path}: {exc}") from exc
    return Schedule.from_dict(data), sha256(raw).hexdigest()


def bundled_schedule() -> tuple:
    """(the bundled schedule contracting the deformed family to the
    triangular one, sha256 hex digest of its file), from one read: eta =
    1/eps, r and s collapse to 1 with slopes set by the target parameters
    m and n, and q approaches p with slope k."""
    return read_schedule(os.path.join(os.path.dirname(__file__), "data",
                                      "jordanian_gl3.schedule"))


def _valuation(f: RatFunc, var: str):
    """The exact valuation of f in var, None for f = 0."""
    if f.is_zero():
        return None
    return min(pexponents(f.num, var)) - min(pexponents(f.den, var))


class _Expansion:
    """The conjugated entries as series in the schedule's limit variable,
    exact through order, in two passes (see the module text)."""

    def __init__(self, schedule: Schedule, order: int):
        self.schedule, self.order = schedule, order
        self.names = sorted(schedule.bindings)
        self.valuations = {name: _valuation(b, schedule.limit_var)
                           for name, b in schedule.bindings.items()}
        self.precision = -1  # the largest relative precision a term needs
        self._split = {}  # packed monomial -> (bound exponents, valuation, rest)
        self._series = {(): [L_ONE]}  # bound exponents -> series of their product

    def _monomial(self, m: int) -> tuple:
        """(bound exponents, valuation or None, packed rest) of m."""
        exps, rest = split_monomial(m, [*self.names, self.schedule.limit_var])
        val = exps[-1]  # the limit variable's own exponent
        bound = []
        for name, e in zip(self.names, exps):
            if e:
                valuation = self.valuations[name]
                if valuation is None:
                    if e < 0:
                        raise DivisionByZero("substitution sends denominator to zero")
                    val = None  # a zero factor
                elif val is not None:
                    val += e * valuation
                bound.append((name, e))
        return tuple(bound), val, rest

    def check(self, value):
        """Pass 1: raise where the bindings send a denominator of value to
        zero, else return what expand() reads: for a Laurent, its terms
        that reach the order as {(valuation, bound exponents): {packed
        rest: coefficient}}; any other value substituted and reduced."""
        if type(value) is not Laurent:
            return value.substitute(self.schedule.bindings)
        groups = {}
        for m, c in value.terms.items():
            hit = self._split.get(m)
            if hit is None:
                hit = self._split[m] = self._monomial(m)
            bound, val, rest = hit
            if val is not None and val <= self.order:
                self.precision = max(self.precision, self.order - val)
                groups.setdefault((val, bound), {})[rest] = c
        return groups

    def expand(self, checked) -> LaurentSeries:
        """Pass 2: the series of one entry that check() returned."""
        var, order = self.schedule.limit_var, self.order
        if type(checked) is not dict:
            return laurent_expand(checked, var, order)
        acc = {}
        for (val, bound), rest in checked.items():
            unbound = Laurent.of(rest)
            for d, s in enumerate(self._product(bound)[:order - val + 1], val):
                if s:
                    acc[d] = acc.get(d, L_ZERO) + unbound * s
        low = min((d for d, c in acc.items() if c), default=order + 1)
        coeffs = tuple(acc.get(d, L_ZERO) for d in range(low, order + 1))
        return LaurentSeries(var, low if coeffs else 0, coeffs, order)

    def _product(self, bound: tuple) -> list:
        """The power series of prod v^e over bound, through the precision."""
        hit = self._series.get(bound)
        if hit is None:
            top = self.precision
            (name, e), rest = bound[-1], bound[:-1]
            if rest:
                hit = series_mul(self._product(rest), self._product(bound[-1:]), top)
            elif e == 1:
                b, var = self.schedule.bindings[name], self.schedule.limit_var
                hit = list(laurent_expand(b, var, self.valuations[name] + top).coeffs)
            elif e == -1:
                hit = series_inverse(self._product(((name, 1),)), top)
            else:
                step = 1 if e > 0 else -1
                hit = series_mul(self._product(((name, e - step),)),
                                 self._product(((name, step),)), top)
            self._series[bound] = hit
        return hit


def _entries(tm: TensorMat, twist: list, schedule: Schedule, order: int):
    """(row pair, col pair, series) for every entry of tm conjugated by the
    twist under the schedule, row by row, each expanded in the limit
    variable through order."""
    conj = conjugate(tm, twist)
    expansion = _Expansion(schedule, order)
    checked = [[expansion.check(value) for value in row] for row in conj.rows]
    for rp, row in zip(conj.basis, checked):
        for cp, entry in zip(conj.basis, row):
            yield rp, cp, expansion.expand(entry)


def contract(tm: TensorMat, twist: list, schedule: Schedule) -> TensorMat:
    """Conjugate by the twist, apply the schedule, take the limit.

    Raises PoleError when any entry diverges; the diagnostics list the
    offending basis pairs with their lowest surviving Laurent terms.
    """
    limits = []
    failures = []
    for rp, cp, series in _entries(tm, twist, schedule, 0):
        try:
            limits.append(limit_at_zero(series))
        except PoleError as exc:
            failures.append({"row": list(rp), "col": list(cp),
                             "lowest_terms": exc.diagnostics})
    if failures:
        raise PoleError(
            f"{len(failures)} entries diverge as {schedule.limit_var} -> 0",
            diagnostics=failures[:6],
        )
    size = len(tm.basis)
    rows = [limits[i:i + size] for i in range(0, len(limits), size)]
    return TensorMat(tm.dim, tm.basis, rows)


def probe_divergence(tm: TensorMat, twist: list, schedule: Schedule) -> list:
    """Divergence records for a twist that is expected to fail.

    Returns [] when the limit is finite; otherwise a list of at most six
    entry records with pole order and the lowest Laurent coefficients.
    """
    records = []
    for rp, cp, series in _entries(tm, twist, schedule, -1):
        poles = series.pole_terms()
        if poles:
            records.append({"row": list(rp), "col": list(cp),
                            "pole_order": series.pole_order(), "lowest_terms": poles})
            if len(records) == 6:
                break
    return records


def extract_sector(tm: TensorMat, keep: tuple) -> TensorMat:
    """Restriction to the tensor square of a 2-element index subset.

    keep lists the retained indices in the order they become (1, 2); entries
    coupling the sector to its complement must vanish, otherwise the
    restriction is not well defined and a ValueError is raised.
    """
    if len(keep) != 2:
        raise ValueError("sector extraction needs exactly two indices")
    relabel = {keep[0]: 1, keep[1]: 2}
    inside = [p for p in tm.basis if p[0] in relabel and p[1] in relabel]
    outside = [p for p in tm.basis if p not in inside]
    for rp in inside:
        for cp in outside:
            if not tm.entry(rp, cp).is_zero() or not tm.entry(cp, rp).is_zero():
                raise ValueError(f"sector couples to {cp}; restriction undefined")
    order = KRON_ORDER_2
    back = {(relabel[p[0]], relabel[p[1]]): p for p in inside}
    rows = [[tm.entry(back[rp], back[cp]) for cp in order] for rp in order]
    return TensorMat(2, order, rows)


def contraction_report(
    tm: TensorMat, twist: list, schedule: Schedule, target: TensorMat = None
) -> tuple:
    """Run the contraction and wrap the outcome in a CheckReport.

    Returns (limit matrix or None, report).  With a target, every entry is
    compared and mismatches are listed by basis pair.
    """
    report = CheckReport("contract")
    report.metadata["limit_var"] = schedule.limit_var
    report.metadata["bindings"] = {k: serialize(v) for k, v in sorted(schedule.bindings.items())}
    try:
        result = contract(tm, twist, schedule)
    except PoleError as exc:
        report.add("finite-limit", False, diverging_entries=exc.diagnostics)
        return None, report
    report.add("finite-limit", True)
    survivors = sorted(result.params())
    report.add("surviving-parameters", True, parameters=survivors)
    if target is not None:
        mismatches = []
        for rp in result.basis:
            for cp in result.basis:
                got = result.entry(rp, cp)
                want = target.entry(rp, cp)
                if got != want:
                    mismatches.append({
                        "row": list(rp), "col": list(cp),
                        "got": serialize(got), "want": serialize(want),
                    })
        report.add(
            "matches-target",
            not mismatches,
            mismatch_count=len(mismatches),
            mismatches=mismatches[:6],
        )
    return result, report
