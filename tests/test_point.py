"""Bindings read off the symbolic derivation (jforge.specialize).

The bindings are rational points or expressions in the parameters.  The
reference is the derivation at the bindings, DerivedAlgebra(bindings=...),
read through the same Substitution; the command line takes it when all
bindings are put on the locus.
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

from jforge import freealg, rtt, specialize
from jforge.errors import NonTerminating
from jforge.cli import main
from jforge.freealg import RewriteSystem, nc_add, nc_gen, nc_scale
from jforge.grammar import parse
from jforge.laurent import Substitution
from jforge.rtt import DerivedAlgebra, append_inverse
from jforge.specialize import SpecializedAlgebra, derive, on_locus, read

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from report_diff import strip_ms  # noqa: E402

from conftest import no_children_left, usable_cpus  # noqa: E402

POINT = {"m": "3/2", "n": "-2/3", "k": "5", "p": "7/4"}
K_ZERO = {"m": "3/2", "n": "-2/3", "k": "0", "p": "7/4"}
POINTS = [
    POINT,
    {"m": "2", "n": "1/3", "k": "-5", "p": "7/2"},
    {"m": "2", "n": "2", "k": "3", "p": "5"},
    K_ZERO,
    {"p": "2"},
]


def bindings(point: dict) -> dict:
    return {name: parse(value) for name, value in point.items()}


def run(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return code, strip_ms(json.loads(out.getvalue()))


def derived_at(alg, point: dict) -> bool:
    """Whether alg is read off the algebra derived at point, the route of
    bindings on the locus."""
    return (type(alg) is SpecializedAlgebra and type(alg.source) is DerivedAlgebra
            and alg.source.bindings == point)


@contextlib.contextmanager
def everywhere_on_the_locus():
    """All bindings derived at the bindings, as before they were read off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specialize, "on_locus", lambda locus, value: True)
        yield


_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))


@st.composite
def rational_points(draw):
    """A generic point, or one moved onto a place where verdicts change,
    or with one parameter bound to an affine expression in another."""
    point = {v: draw(_rationals) for v in ("m", "n", "k", "p")}
    move = draw(st.sampled_from(
        ["generic", "m=n", "k=0", "p=1", "p=-1", "m=n=0", "m=0", "subset", "affine"]))
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
    elif move == "affine":
        bound, free = draw(st.permutations(sorted(point)))[:2]
        del point[free]
        point[bound] = f"{point[bound]}+({draw(_rationals)})*{free}"
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
@example({"m": "3/2", "n": "-2/3", "p": "7/4+(2)*k"})
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
    assert got.quotient().system.to_dict() == derived.quotient().system.to_dict()
    assert (got.system.confluence_report(max_degree=3).to_dict()
            == derived.system.confluence_report(max_degree=3).to_dict())


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
    assert derived_at(extended, point)
    assert extended.to_dict() == derived.to_dict()
    assert type(quotient.parent) is DerivedAlgebra
    assert quotient.parent.bindings == point
    assert quotient.system.to_dict() == derived.quotient().system.to_dict()


def test_m_equals_n_equals_zero_is_on_the_locus(alg):
    point = bindings({"m": "0", "n": "0"})
    assert read(alg, point) is None
    assert derived_at(derive(bindings=point), point)
    # there the transposed convention orients, symbolically it does not
    assert derived_at(derive(convention="transposed", bindings=point, extend=False),
                      point)
    assert isinstance(derive(bindings=bindings(POINT)), SpecializedAlgebra)


def test_no_locus_entry_repeats(alg, quotient):
    for locus in (alg.locus, quotient.locus):
        assert locus
        assert all(a != b for i, a in enumerate(locus) for b in locus[:i])


@pytest.mark.parametrize("point", [{"p": "0"}, {"m": "0"}])
def test_pivots_and_denominators_put_points_on_the_locus(alg, point):
    assert read(alg, bindings(point)) is None


def test_expression_bindings_are_read_off_the_symbolic_run():
    for point in ({"p": "1+m"}, {"m": "n+1"}):
        assert isinstance(derive(bindings=bindings(point)), SpecializedAlgebra)


def test_expression_bindings_on_the_locus_are_derived_at_the_bindings():
    point = bindings({"m": "0", "p": "1+k"})
    assert derived_at(derive(bindings=point), point)


def test_a_user_set_step_bound_leaves_the_route_to_the_locus(monkeypatch):
    monkeypatch.setenv("JFORGE_MAX_STEPS", "1000")
    for point in (POINT, {"p": "1+m"}):
        assert isinstance(derive(bindings=bindings(point), extend=False),
                          SpecializedAlgebra)
    point = bindings({"m": "0"})
    assert derived_at(derive(bindings=point, extend=False), point)


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
    append_inverse(at_zero, "inv", nc_gen("a"), (), locus=[])
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
    assert derived_at(derive(bindings=point), point)
    assert calls == [point]


def test_the_read_route_can_take_more_steps_than_the_point_route(monkeypatch):
    # at k = 0 the symbolic rules keep terms that vanish there: the largest
    # normal form of the derivation takes 406 steps with them and 236 with
    # the rules derived at k = 0.  K_ZERO is off the locus, so derive()
    # takes the read route under any bound, and the bound counts its steps.
    monkeypatch.setattr(freealg, "step_bound", lambda: 300)
    point = bindings(K_ZERO)
    with pytest.raises(NonTerminating, match="rewriting exceeded 300 steps"):
        derive(bindings=point)
    assert type(DerivedAlgebra(bindings=point)) is DerivedAlgebra


def test_a_user_set_bound_counts_the_steps_of_the_reported_run(monkeypatch, capsys):
    # a step counts the rewrite tree of one normal form, cached words too,
    # so the boundary is the same whether the stages share a process or not
    point = [a for name, value in K_ZERO.items() for a in ("--set", f"{name}={value}")]
    for argv, steps in (
            # the read route's derivation at k = 0 takes 406 steps (see above)
            (["relations", "--convention", "auto", *point], 406),
            # the largest normal form of the hopf checks takes 1464
            (["hopf", "--convention", "auto", *point], 1464),
            (["all", *point], 1464)):
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            monkeypatch.delenv("JFORGE_MAX_STEPS", raising=False)
            unbounded = run(argv)
            monkeypatch.setenv("JFORGE_MAX_STEPS", str(steps - 1))
            assert main(argv) == 1, (argv[0], cpus)
            assert f"rewriting exceeded {steps - 1} steps" in capsys.readouterr().err
            monkeypatch.setenv("JFORGE_MAX_STEPS", str(steps))
            assert run(argv) == unbounded, (argv[0], cpus)
    no_children_left()


def test_a_point_over_the_step_bound_at_the_point_fails_as_there(monkeypatch, capsys):
    monkeypatch.setenv("JFORGE_MAX_STEPS", "20")
    argv = [a for name, value in POINT.items() for a in ("--set", f"{name}={value}")]
    assert main(["relations", "--convention", "auto", *argv]) == 1
    assert "rewriting exceeded 20 steps" in capsys.readouterr().err
