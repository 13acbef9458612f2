"""Rational points read off the symbolic derivation (jforge.specialize).

The reference is the derivation at the point, DerivedAlgebra(bindings=...),
which the command line takes when every point is put on the locus.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jforge import rtt, specialize
from jforge.cli import main
from jforge.freealg import RewriteSystem, nc_add, nc_gen, nc_scale
from jforge.grammar import parse
from jforge.laurent import Substitution
from jforge.rtt import DerivedAlgebra, append_inverse
from jforge.specialize import SpecializedAlgebra, derive, on_locus, read

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from report_diff import strip_ms  # noqa: E402

POINT = {"m": "3/2", "n": "-2/3", "k": "5", "p": "7/4"}
POINTS = [
    POINT,
    {"m": "2", "n": "1/3", "k": "-5", "p": "7/2"},
    {"m": "2", "n": "2", "k": "3", "p": "5"},
    {"m": "3/2", "n": "-2/3", "k": "0", "p": "7/4"},
    {"p": "2"},
]


def bindings(point: dict) -> dict:
    return {name: parse(value) for name, value in point.items()}


def run(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return code, strip_ms(json.loads(out.getvalue()))


@contextlib.contextmanager
def everywhere_on_the_locus():
    """Every point derived at the point, as before points were read off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specialize, "on_locus", lambda locus, value: True)
        yield


_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))


@st.composite
def rational_points(draw):
    """A generic point, or one moved onto a place where verdicts change."""
    point = {v: draw(_rationals) for v in ("m", "n", "k", "p")}
    move = draw(st.sampled_from(
        ["generic", "m=n", "k=0", "p=1", "p=-1", "m=n=0", "m=0", "subset"]))
    if move == "m=n":
        point["n"] = point["m"]
    elif move == "k=0":
        point["k"] = Fraction(0)
    elif move in ("p=1", "p=-1"):
        point["p"] = Fraction(int(move[2:]))
    elif move == "m=n=0":
        point = {"m": Fraction(0), "n": Fraction(0)}
    elif move == "m=0":
        point["m"] = Fraction(0)
    elif move == "subset":
        names = draw(st.sets(st.sampled_from(sorted(point)), min_size=1, max_size=3))
        point = {v: point[v] for v in sorted(names)}
    return point


def _point(**values):
    return {v: Fraction(x) for v, x in values.items()}


@given(rational_points())
@example(_point(m="0", n="0"))
@example(_point(m="0", n="-2/3", k="5", p="7/4"))
@example(_point(m="2", n="2", k="3", p="5"))
@example(_point(m="3/2", n="-2/3", k="0", p="7/4"))
@example(_point(m="3/2", n="-2/3", k="5", p="1"))
@example(_point(m="3/2", n="-2/3", k="5", p="-1"))
@settings(max_examples=8, deadline=None)
def test_point_reports_equal_the_reports_derived_at_the_point(point):
    argv = [a for name, value in point.items() for a in ("--set", f"{name}={value}")]
    for command in ("relations", "hopf"):
        cmd = [command, "--convention", "auto", *argv]
        got = run(cmd)
        with everywhere_on_the_locus():
            derived = run(cmd)
        assert got == derived, (command, point)


@pytest.mark.parametrize("point", POINTS)
def test_read_table_equals_the_table_derived_at_the_point(alg, point):
    got = read(alg, bindings(point))
    assert isinstance(got, SpecializedAlgebra)
    derived = DerivedAlgebra(bindings=bindings(point))
    assert got.to_dict() == derived.to_dict()
    assert got.quotient().xi_record == derived.quotient().xi_record
    assert got.confluence().to_dict() == derived.confluence().to_dict()


def test_loci_met_after_the_first_reading_fall_back_to_the_point():
    # for this R-matrix no rational point is off the graded table's locus
    # and on what the extension or the quotient adds to it, so the second
    # locus test is forced
    point = bindings(POINT)
    derived = DerivedAlgebra(bindings=point)
    graded = read(DerivedAlgebra(extend=False), point)
    full = read(DerivedAlgebra(), point)
    with everywhere_on_the_locus():
        extended = graded.extended()
        quotient = full.quotient()
    assert type(extended) is DerivedAlgebra
    assert extended.to_dict() == derived.to_dict()
    assert type(quotient.parent) is DerivedAlgebra
    assert quotient.xi_record == derived.quotient().xi_record


def test_m_equals_n_equals_zero_is_on_the_locus(alg):
    point = bindings({"m": "0", "n": "0"})
    assert read(alg, point) is None
    got = derive(bindings=point)
    assert type(got) is DerivedAlgebra
    assert got.bindings == point
    # there the transposed convention orients, symbolically it does not
    assert type(derive(convention="transposed", bindings=point, extend=False)) \
        is DerivedAlgebra
    assert isinstance(derive(bindings=bindings(POINT)), SpecializedAlgebra)


@pytest.mark.parametrize("point", [{"p": "0"}, {"m": "0"}])
def test_pivots_and_denominators_put_points_on_the_locus(alg, point):
    assert read(alg, bindings(point)) is None


def test_expression_bindings_are_derived_at_the_bindings():
    for point in ({"p": "1+m"}, {"m": "n+1"}):
        assert type(derive(bindings=bindings(point))) is DerivedAlgebra


def test_collapse_coefficient_is_on_the_locus():
    # element m*b + a: its leading word b carries m, so at m = 0 the
    # collapse rule is oriented at a*inv instead of b*inv
    locus = []
    system = RewriteSystem(("a", "b", "inv"))
    element = nc_add(nc_scale(nc_gen("b"), parse("m")), nc_gen("a"))
    append_inverse(system, "inv", element, (), locus=locus)
    assert on_locus(locus, Substitution({"m": 0}))
    assert not on_locus(locus, Substitution({"m": 2}))
    at_zero = RewriteSystem(("a", "b", "inv"))
    append_inverse(at_zero, "inv", nc_gen("a"), ())
    assert [r.lhs for r in at_zero.rule_list()] == [("a", "inv")]
    assert [r.lhs for r in system.rule_list()] == [("b", "inv")]


@pytest.mark.parametrize("point", [{}, POINT])
def test_exchange_entries_are_built_once_per_convention(monkeypatch, point):
    calls = []
    build = rtt.rtt_entries

    def counted(rmat, convention="plain"):
        calls.append(convention)
        return build(rmat, convention)

    monkeypatch.setattr(rtt, "rtt_entries", counted)
    argv = [a for name, value in point.items() for a in ("--set", f"{name}={value}")]
    run(["relations", "--convention", "auto", *argv])
    assert sorted(calls) == ["plain", "transposed"]


def test_a_point_on_the_table_locus_is_extended_only_at_the_point(monkeypatch):
    calls = []
    extend = DerivedAlgebra.extend

    def counted(self):
        calls.append(dict(self.bindings))
        return extend(self)

    monkeypatch.setattr(DerivedAlgebra, "extend", counted)
    point = bindings({"m": "0"})
    got = derive(bindings=point)
    assert type(got) is DerivedAlgebra
    assert calls == [point]


def test_a_read_point_over_the_step_bound_is_rerun_at_the_point(monkeypatch):
    # at k = 0 the symbolic rules keep terms that vanish there: one normal
    # form takes 136 steps with them and 85 with the rules derived at k = 0
    argv = ["relations", "--convention", "auto",
            *(a for name, value in POINT.items() if name != "k"
              for a in ("--set", f"{name}={value}")), "--set", "k=0"]
    monkeypatch.setenv("JFORGE_MAX_STEPS", "100")
    got = run(argv)
    with everywhere_on_the_locus():
        derived = run(argv)
    assert got == derived
    assert got[0] == 0


def test_a_point_over_the_step_bound_at_the_point_fails_as_there(monkeypatch, capsys):
    monkeypatch.setenv("JFORGE_MAX_STEPS", "20")
    argv = [a for name, value in POINT.items() for a in ("--set", f"{name}={value}")]
    assert main(["relations", "--convention", "auto", *argv]) == 1
    assert "rewriting exceeded 20 steps" in capsys.readouterr().err
