"""Singular-limit transport: schedules, pole cancellation, sector checks."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge import contraction
from jforge import poly as P
from jforge.cli import LANES
from jforge.contraction import (
    Schedule,
    bundled_schedule,
    contract,
    contraction_report,
    extract_sector,
    probe_divergence,
    read_schedule,
)
from jforge.errors import DivisionByZero, PoleError, ScheduleError
from jforge.field import LaurentSeries, laurent_expand
from jforge.grammar import parse, serialize
from jforge.rmat import (
    TensorMat,
    conjugate,
    four_param_deformed_r3,
    jordanian_r2,
    jordanian_r3,
    twist_2x2,
    twist_3x3,
    twist_probe_3x3,
    two_param_deformed_r2,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# the committed file the README passes to `contract --schedule`; the
# package data of an installed jforge is built from it
REPO_SCHEDULE = os.path.join(os.path.dirname(__file__), "..", "src", "jforge",
                             "data", "jordanian_gl3.schedule")


def equal_matrices(a: TensorMat, b: TensorMat) -> bool:
    return a.basis == b.basis and all(
        a.entry(rp, cp) == b.entry(rp, cp) for rp in a.basis for cp in a.basis)


def with_bindings(schedule: Schedule, extra: dict) -> Schedule:
    """The schedule with the bindings in extra put in place of its own."""
    return Schedule(schedule.limit_var, {**schedule.bindings, **extra})


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        Schedule("eps", {"eps": "1"})
    with pytest.raises(ScheduleError):
        Schedule("eps", {"q": "p + eta", "eta": "1/eps"})  # bound name reused
    with pytest.raises(ScheduleError):
        Schedule("2bad", {})


def test_schedule_roundtrip_and_digest():
    sched = bundled_schedule()[0]
    again = Schedule.from_dict({
        "limit_var": sched.limit_var,
        "bindings": {k: serialize(v) for k, v in sched.bindings.items()}})
    assert again.limit_var == sched.limit_var
    assert again.bindings == sched.bindings
    assert sched.survivors() == {"m", "n", "k", "p"}
    assert len(read_schedule(REPO_SCHEDULE)[1]) == 64


def test_repo_and_packaged_schedules_agree():
    schedule, digest = read_schedule(REPO_SCHEDULE)
    assert schedule.bindings == bundled_schedule()[0].bindings
    # the digest contract reports carry is that of the file's bytes
    with open(REPO_SCHEDULE, "rb") as fh:
        assert digest == hashlib.sha256(fh.read()).hexdigest()
    assert bundled_schedule()[1] == digest


_NO_BUILTIN_SHA256 = """
import hashlib, json, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
from jforge import contraction
print(json.dumps([contraction.bundled_schedule()[1], contraction.sha256 is hashlib.sha256]))
"""


def test_the_digest_falls_back_to_hashlib():
    # without the interpreter's built-in SHA-256 module the digest comes
    # from hashlib, and is the same
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_BUILTIN_SHA256], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    digest, from_hashlib = json.loads(proc.stdout)
    assert from_hashlib
    assert contraction.sha256 is not hashlib.sha256
    with open(REPO_SCHEDULE, "rb") as fh:
        assert digest == bundled_schedule()[1] == hashlib.sha256(fh.read()).hexdigest()


def test_contraction_hits_triangular_target_exactly():
    result = contract(four_param_deformed_r3(), twist_3x3(), bundled_schedule()[0])
    assert equal_matrices(result, jordanian_r3())
    assert result.params() == {"m", "n", "k", "p"}


def test_contraction_matches_committed_fixture():
    result = contract(four_param_deformed_r3(), twist_3x3(), bundled_schedule()[0])
    with open(os.path.join(FIXTURES, "rj3_contracted.json")) as fh:
        assert result.to_dict() == json.load(fh)


def test_two_dimensional_lane():
    result = contract(two_param_deformed_r2(), twist_2x2(), bundled_schedule()[0])
    assert equal_matrices(result, jordanian_r2())


def test_block_sector_of_contracted_matrix():
    result = contract(four_param_deformed_r3(), twist_3x3(), bundled_schedule()[0])
    sector = extract_sector(result, (2, 3))
    assert equal_matrices(sector, jordanian_r2())


def test_sector_extraction_rejects_coupled_indices():
    with pytest.raises(ValueError):
        extract_sector(jordanian_r3(), (1, 2))


def test_probe_twist_diverges_and_is_recorded():
    with pytest.raises(PoleError):
        contract(four_param_deformed_r3(), twist_probe_3x3(), bundled_schedule()[0])
    records = probe_divergence(four_param_deformed_r3(), twist_probe_3x3(),
                               bundled_schedule()[0])
    assert records, "divergence must be witnessed entry by entry"
    assert all(r["pole_order"] >= 1 for r in records)
    with open(os.path.join(FIXTURES, "gprime_probe.json")) as fh:
        assert json.load(fh)["records"] == records


def test_wrong_slope_misses_target():
    # same pole structure, wrong finite part: limit exists, comparison fails
    bad = with_bindings(bundled_schedule()[0], {"r": parse("1 + (m + n)/2*eps")})
    result, report = contraction_report(
        four_param_deformed_r3(), twist_3x3(), bad, jordanian_r3())
    assert result is not None
    failing = {c.name: c for c in report.checks}
    assert not failing["matches-target"].passed


def test_report_carries_reproducibility_metadata():
    _result, report = contraction_report(
        four_param_deformed_r3(), twist_3x3(), bundled_schedule()[0],
        jordanian_r3())
    assert report.passed
    assert report.metadata["limit_var"] == "eps"
    assert set(report.metadata["bindings"]) == {"eta", "q", "r", "s"}


def rescaled(schedule: Schedule, c: str) -> Schedule:
    """The schedule with eps -> c*eps in every binding."""
    eps = parse(f"({c})*eps")
    return with_bindings(schedule, {k: v.substitute({"eps": eps})
                                    for k, v in schedule.bindings.items()})


def lane_outcome(lane: str, schedule: Schedule) -> tuple:
    """(limit matrix or PoleError diagnostics, probe records) of one lane."""
    source, twist, _target = LANES[lane]
    try:
        limit = contract(source(), twist(), schedule).to_dict()
    except PoleError as exc:
        limit = exc.diagnostics
    return limit, probe_divergence(source(), twist(), schedule)


def reference_entries(tm: TensorMat, twist: list, schedule: Schedule, order: int):
    """The entries of contraction._entries built the long way: each one
    substituted to its reduced RatFunc and expanded through pole + 4,
    whatever order the reader asks for."""
    subbed = conjugate(tm, twist).substitute(schedule.bindings)
    for rp, row in zip(subbed.basis, subbed.rows):
        for cp, value in zip(subbed.basis, row):
            yield rp, cp, laurent_expand(value, schedule.limit_var)


@pytest.mark.parametrize("c", [None, "7/3", "-2/5"])
@pytest.mark.parametrize("lane", sorted(LANES))
def test_truncated_expansions_match_untruncated_reference(monkeypatch, lane, c):
    schedule = bundled_schedule()[0] if c is None else rescaled(bundled_schedule()[0], c)
    got = lane_outcome(lane, schedule)
    # the reference replaces the whole entry loop, so both the truncation
    # and the term-by-term expansion are checked against reduced, full series
    monkeypatch.setattr(contraction, "_entries", reference_entries)
    want = lane_outcome(lane, schedule)
    assert got == want
    assert bool(want[1]) == (lane == "gprime")  # only the probe twist diverges


ZERO_POLE = "substitution sends denominator to zero"


def truncated(series: LaurentSeries, order: int) -> LaurentSeries:
    """The series an expansion through order gives, read off a longer one."""
    if series.is_zero() or series.min_degree > order:
        return LaurentSeries(series.variable, 0, (), order)
    keep = order - series.min_degree + 1
    return LaurentSeries(series.variable, series.min_degree, series.coeffs[:keep], order)


# -- random schedules: the series route against the reduced one -------------
# slopes are rationals times 1 or a parameter; eta is a pole of order one or
# two; a binding may have a several-term leading coefficient in the limit
# variable, be free of it, or be 0; the limit variable may be the matrix
# parameter p, which stays unbound.  A several-term denominator of a
# binding is left to tools/diff_against.py: the reduced route takes seconds
# to minutes per lane there

slope = st.builds(lambda c, v: f"({c})*{v}",
                  st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
                  st.sampled_from(("1", "m", "n", "k")))
pole = st.builds(lambda c, e: f"({c})/eps^{e}",
                 st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
                 st.sampled_from((1, 2)))


def collapsing(start: str):
    """Bindings that approach start, or do not, in the ways listed above."""
    return st.one_of(
        st.builds(lambda a: f"{start} + {a}*eps", slope),
        st.builds(lambda a: f"({start} + m)*(1 + {a}*eps)", slope),
        st.builds(lambda a: f"{start} + {a}", slope),
        st.just("0"))


@given(st.sampled_from(("eps", "p")), pole, collapsing("p"), collapsing("1"),
       collapsing("1"))
@settings(max_examples=40, deadline=None)
def test_series_route_matches_the_reduced_route(time_limit, limit, eta, q, r, s):
    texts = {"eta": eta, "q": q, "r": r, "s": s}
    schedule = Schedule(limit, {name: parse(text.replace("eps", limit))
                                for name, text in texts.items()})
    with time_limit(60):
        for lane, (source, twist, _target) in sorted(LANES.items()):
            args = source(), twist(), schedule
            try:
                want = list(reference_entries(*args, None))
            except DivisionByZero as exc:
                assert str(exc) == ZERO_POLE
                for order in (0, -1):
                    with pytest.raises(DivisionByZero, match=ZERO_POLE):
                        list(contraction._entries(*args, order))
                continue
            for order in (0, -1):
                got = list(contraction._entries(*args, order))
                assert got == [(rp, cp, truncated(series, order))
                               for rp, cp, series in want]


def test_a_pole_met_by_substitution_raises_before_any_entry_is_read():
    schedule = with_bindings(bundled_schedule()[0], {"s": parse("0")})
    with pytest.raises(DivisionByZero, match=ZERO_POLE):
        contract(four_param_deformed_r3(), twist_3x3(), schedule)
    with pytest.raises(DivisionByZero, match=ZERO_POLE):
        probe_divergence(four_param_deformed_r3(), twist_probe_3x3(), schedule)


def test_every_entry_is_substituted_before_any_is_expanded(monkeypatch):
    # the s = 0 schedule meets its pole after at most three probe records,
    # so it cannot tell this order from a lazy one; count instead: no entry
    # and no bound value is expanded before every entry is checked
    checked, seen = [], []
    check, expand = contraction._Expansion.check, contraction._Expansion.expand

    def counting(self, value):
        checked.append(1)
        return check(self, value)

    def expanding(self, entry):
        seen.append(len(checked))
        return expand(self, entry)

    def expand_binding(f, var, order=None):
        seen.append(len(checked))
        return laurent_expand(f, var, order)

    monkeypatch.setattr(contraction._Expansion, "check", counting)
    monkeypatch.setattr(contraction._Expansion, "expand", expanding)
    monkeypatch.setattr(contraction, "laurent_expand", expand_binding)
    records = probe_divergence(four_param_deformed_r3(), twist_probe_3x3(),
                               bundled_schedule()[0])
    assert len(records) == 6
    assert len(seen) > 6 and set(seen) == {81}


def test_contraction_entries_are_expanded_without_exact_division(monkeypatch):
    calls = []
    pdiv_exact = P.pdiv_exact

    def counting(a, b):
        calls.append(1)
        return pdiv_exact(a, b)

    monkeypatch.setattr(P, "pdiv_exact", counting)
    result = contract(four_param_deformed_r3(), twist_3x3(), bundled_schedule()[0])
    assert equal_matrices(result, jordanian_r3())
    assert calls == []
