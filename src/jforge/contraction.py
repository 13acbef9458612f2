"""Singular limits: twist conjugation, parameter schedule, Laurent limit.

The pipeline is conjugate -> substitute -> expand -> limit.  A Schedule
binds parameters to expressions in a limit variable (conventionally eps);
the twist strength eta is bound to a pole like 1/eps while the deformation
parameters approach their degenerate values linearly.  Divergences cancel
entry by entry exactly when the twist is placed correctly, which is the
whole point: contract() either returns the finite limit matrix or raises
PoleError carrying the entries that blew up and their lowest Laurent
coefficients.

Each entry is Laurent-expanded only as far as its reader looks (the
series is exact through the order passed, see field.laurent_expand):
contract() expands with order 0, because the limit reads the pole terms
for its diagnostics and the constant term for the value, and
probe_divergence() with order -1, because a record holds only pole terms.
"""

from __future__ import annotations

import hashlib
import json

from .errors import DivisionByZero, PoleError, ScheduleError
from .field import RatFunc, laurent_expand, limit_at_zero
from .grammar import GrammarError, parse, serialize
from .report import CheckReport
from .rmat import KRON_ORDER_2, TensorMat, conjugate

SCHEDULE_SCHEMA = 1


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

    def override(self, extra: dict) -> "Schedule":
        merged = dict(self.bindings)
        for name, expr in extra.items():
            merged[name] = expr
        return Schedule(self.limit_var, merged, self.description)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEDULE_SCHEMA,
            "description": self.description,
            "limit_var": self.limit_var,
            "bindings": {k: serialize(v) for k, v in sorted(self.bindings.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        if not isinstance(data, dict):
            raise ScheduleError("schedule must be a JSON object")
        try:
            limit_var = data["limit_var"]
            bindings = data["bindings"]
        except KeyError as exc:
            raise ScheduleError(f"schedule is missing {exc}") from exc
        if not isinstance(bindings, dict):
            raise ScheduleError("bindings must be an object")
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
    return Schedule.from_dict(data), hashlib.sha256(raw).hexdigest()


def bundled_schedule() -> tuple:
    """(standard_schedule(), sha256 hex digest of its file), from one read."""
    from importlib.resources import files

    raw = files("jforge").joinpath("data/jordanian_gl3.schedule").read_bytes()
    return Schedule.from_dict(json.loads(raw)), hashlib.sha256(raw).hexdigest()


def standard_schedule() -> Schedule:
    """The bundled schedule contracting the deformed family to the
    triangular one: eta = 1/eps, r and s collapse to 1 with slopes set by
    the target parameters m and n, and q approaches p with slope k."""
    return bundled_schedule()[0]


def _limit_entry(value: RatFunc, limit_var: str):
    """(finite limit, None) or (None, diagnostics list) for one entry."""
    try:
        series = laurent_expand(value, limit_var, 0)
        return limit_at_zero(series), None
    except PoleError as exc:
        return None, exc.diagnostics
    except DivisionByZero as exc:
        return None, [("denominator", str(exc))]


def contract(tm: TensorMat, twist: list, schedule: Schedule) -> TensorMat:
    """Conjugate by the twist, apply the schedule, take the limit.

    Raises PoleError when any entry diverges; the diagnostics list the
    offending basis pairs with their lowest surviving Laurent terms.
    """
    conj = conjugate(tm, twist)
    subbed = conj.substitute(schedule.bindings)
    rows = []
    failures = []
    for i, row in enumerate(subbed.rows):
        out_row = []
        for j, value in enumerate(row):
            lim, diag = _limit_entry(value, schedule.limit_var)
            if diag is not None:
                failures.append((subbed.basis[i], subbed.basis[j], diag))
                lim = None
            out_row.append(lim)
        rows.append(out_row)
    if failures:
        shown = [
            {"row": list(rp), "col": list(cp), "lowest_terms": [list(d) for d in diag]}
            for rp, cp, diag in failures[:6]
        ]
        raise PoleError(
            f"{len(failures)} entries diverge as {schedule.limit_var} -> 0",
            diagnostics=shown,
        )
    return TensorMat(tm.dim, tm.basis, rows)


def probe_divergence(tm: TensorMat, twist: list, schedule: Schedule, max_records: int = 6) -> list:
    """Divergence records for a twist that is expected to fail.

    Returns [] when the limit is finite; otherwise a list of entry records
    with pole order and the lowest Laurent coefficients.
    """
    conj = conjugate(tm, twist)
    subbed = conj.substitute(schedule.bindings)
    records = []
    for i, row in enumerate(subbed.rows):
        for j, value in enumerate(row):
            if value.is_zero():
                continue
            try:
                series = laurent_expand(value, schedule.limit_var, -1)
            except DivisionByZero as exc:
                records.append({
                    "row": list(subbed.basis[i]), "col": list(subbed.basis[j]),
                    "pole_order": None, "lowest_terms": [["denominator", str(exc)]],
                })
                continue
            if series.min_degree < 0 and not series.is_zero():
                low = []
                for t, c in enumerate(series.coeffs):
                    deg = series.min_degree + t
                    if deg >= 0 or len(low) == 3:
                        break
                    if not c.is_zero():
                        low.append([deg, serialize(c)])
                if low:
                    records.append({
                        "row": list(subbed.basis[i]), "col": list(subbed.basis[j]),
                        "pole_order": -series.min_degree, "lowest_terms": low,
                    })
            if len(records) >= max_records:
                return records
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
