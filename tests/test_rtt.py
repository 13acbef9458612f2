"""Exchange-identity derivation: table, inverses, reference cross-check."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge import linalg, rtt
from jforge.errors import DegreeOverflow, OrientationFailure
from jforge.freealg import (
    nc_add,
    nc_gen,
    nc_mul,
    nc_one,
    nc_scale,
    nc_str,
    nc_sub,
    nc_word,
)
from jforge.grammar import parse
from jforge.laurent import Laurent, coerce
from jforge.linalg import rref_sparse, solve_dense
from jforge.rmat import four_param_deformed_r3, jordanian_r3
from jforge.rtt import (
    GEN_ORDER,
    DerivedAlgebra,
    block_determinant,
    derive_relation_table,
    reference_relations,
    resolve_convention,
    rtt_entries,
    rtt_zero_report,
    verify_reference,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return json.loads((FIXTURES / name).read_text())


def test_convention_resolution_prefers_plain():
    winner, scores, _graded = resolve_convention()
    assert winner == "plain"
    assert scores["plain"]["score"] == 26
    assert scores["transposed"]["score"] == -1
    assert "error" in scores["transposed"]


def test_convention_resolution_matches_fixture():
    fixture = load("convention_resolution.json")
    winner, scores, _graded = resolve_convention()
    assert winner == fixture["winner"]
    assert {c: s["score"] for c, s in scores.items()} == {
        c: s["score"] for c, s in fixture["scores"].items()
    }


def test_transposed_convention_fails_orientation():
    with pytest.raises(OrientationFailure):
        DerivedAlgebra(convention="transposed", extend=False)


def test_generator_order_is_fixed():
    assert GEN_ORDER == ("f", "f_inv", "x", "y", "phi", "theta", "b", "a",
                        "d", "c", "delta_inv", "e", "xi")


def test_derived_table_matches_fixture(alg):
    fixture = load("relation_table_rj3.json")
    got = alg.system.to_dict()
    assert got["order"] == fixture["order"]
    assert got["rules"] == fixture["rules"]
    assert alg.convention == fixture["convention"]


def test_reference_relations_all_but_one(alg):
    report = verify_reference(alg)
    assert len(report.checks) == 27
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["ref:f-y"]
    details = failing[0].details
    assert details["recorded_residual"] == details["residual"]
    # the same relation with the opposite sign on the inhomogeneous term
    # is a consequence of the table
    assert details["sign_flipped_residual"] == "0"
    assert details["recorded_residual"] == "2*k/p*f*x"


def test_every_rtt_entry_reduces_to_zero(alg):
    report = rtt_zero_report(alg)
    assert report.passed
    assert report.checks[0].details["total"] == 81


def test_rtt_entries_count_positions(alg):
    entries = rtt_entries(alg.rmat, alg.convention)
    assert len(entries) == 81


def test_table_spans_the_exchange_ideal(alg):
    # two-way containment: each derived rule's difference is an exchange
    # consequence, checked by reducing it with a fresh table built from
    # the same matrix (the nontrivial direction is the rtt zero report)
    fresh = DerivedAlgebra(extend=False)
    for rule in alg.table_rules:
        diff = nc_sub(nc_word(rule.lhs), rule.rhs)
        assert fresh.reduces_to_zero(diff)


def test_confluence_of_full_and_quotient(alg, quotient):
    full = alg.confluence(max_degree=3)
    assert full.passed
    assert full.checks[0].details["candidates"] == 232
    quot = quotient.confluence(max_degree=3)
    assert quot.passed
    assert quot.checks[0].details["candidates"] == 130


def test_adjoined_inverses_are_verified(alg, quotient):
    names = [rec["inverse"] for rec in alg.records]
    assert names == ["f_inv", "delta_inv", "e"]
    for rec in alg.records:
        assert rec["added"], rec["inverse"]
        assert rec["verified"], rec["inverse"]
        assert not rec["unsolved"], rec["inverse"]
        assert "mover_roundtrip" in rec
    assert quotient.xi_record["verified"]


def test_block_inverse_matches_fixture(alg):
    fixture = load("t_inverse.json")
    gens = alg.system.generators
    got = [[nc_str(alg.block_inv[i][j], gens) for j in (0, 1)]
           for i in (0, 1)]
    assert got == fixture["entries"]
    assert alg.block_inv_record["solved"]
    assert alg.block_inv_record["verified"]


def test_block_inverse_products(alg):
    block = (("a", "b"), ("c", "d"))
    for i in (0, 1):
        for j in (0, 1):
            left = nc_add(nc_mul(nc_gen(block[i][0]), alg.block_inv[0][j]),
                          nc_mul(nc_gen(block[i][1]), alg.block_inv[1][j]))
            want = nc_one() if i == j else {}
            assert alg.normal_form(nc_sub(left, want)) == {}


def test_determinant_commutators_in_the_block(alg):
    delta = block_determinant(alg.bindings)

    def comm(g):
        return nc_sub(nc_mul(delta, nc_gen(g)), nc_mul(nc_gen(g), delta))

    assert alg.reduces_to_zero(comm("b"))
    assert alg.reduces_to_zero(comm("f"))
    defect = alg.normal_form(
        nc_scale(nc_mul(delta, nc_gen("b")), parse("m - n")))
    assert alg.normal_form(comm("a")) == defect
    assert alg.normal_form(comm("d")) == alg.normal_form(
        nc_scale(defect, parse("-1")))


def test_reference_set_shape():
    rels = list(reference_relations())
    assert len(rels) == 27
    tags = [tag for tag, _ in rels]
    assert len(set(tags)) == 27
    assert all(tag.startswith("ref:") for tag in tags)


def test_classical_bindings_give_commutative_table():
    classical = {name: parse(value)
                 for name, value in (("m", "0"), ("n", "0"),
                                     ("k", "0"), ("p", "1"))}
    alg = DerivedAlgebra(bindings=classical, extend=False)
    for u in ("f", "x", "y", "theta", "phi", "a", "b", "c", "d"):
        for v in ("f", "x", "y", "theta", "phi", "a", "b", "c", "d"):
            diff = nc_sub(nc_mul(nc_gen(u), nc_gen(v)),
                          nc_mul(nc_gen(v), nc_gen(u)))
            assert alg.reduces_to_zero(diff), (u, v)


def test_deep_word_fails_with_a_jforge_error():
    # rewriting x^N f moves f left one letter per recursive step
    alg = DerivedAlgebra(extend=False)
    shallow = alg.normal_form(nc_word(("x",) * 500 + ("f",)))
    assert nc_str(shallow) == "1/(p^500)*" + "*".join(("f",) + ("x",) * 500)
    with pytest.raises(DegreeOverflow, match="word of length 1101"):
        alg.normal_form(nc_word(("x",) * 1100 + ("f",)))


# -- one elimination per side: the multi-target solve --------------------------

small = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def span_system(draw):
    """Images of m keys over n words, and k targets.

    A target is random (often outside the span), inside the span, or a
    span element plus a multiple of an earlier target, so two targets can
    be inconsistent on the same missing direction; the later one then has
    no pivot column of its own.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    a = [[draw(small) for _ in range(m)] for _ in range(n)]
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("random", "span", "echo")))
        if kind == "random":
            b = [draw(small) for _ in range(n)]
        else:
            x = [draw(small) for _ in range(m)]
            b = [sum(row[i] * x[i] for i in range(m)) for row in a]
            if kind == "echo" and targets:
                prev = targets[draw(st.integers(0, len(targets) - 1))]
                c = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
                b = [u + c * v for u, v in zip(b, prev)]
        targets.append(b)
    return a, targets


def _as_poly(column):
    return {(f"w{i}",): coerce(v) for i, v in enumerate(column) if v}


@given(span_system())
@settings(max_examples=200, deadline=None)
def test_multi_target_solve_matches_one_target_at_a_time(system):
    a, targets = system
    keys = [f"g{i}" for i in range(len(a[0]))]
    columns = {g: _as_poly([row[i] for row in a]) for i, g in enumerate(keys)}
    polys = [_as_poly(b) for b in targets]
    got = solve_dense(columns, polys)
    assert got == [solve_dense(columns, [b])[0] for b in polys]


def test_block_inverse_is_one_elimination(alg, monkeypatch):
    # both columns of the identity are targets of one solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rref_sparse(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref_sparse", counted)
    matrix, record = rtt.solve_block_inverse(alg.system)
    assert record["verified"]
    assert matrix == alg.block_inv
    assert len(calls) == 1


RQ3_UNSOLVED = [
    ["b", "a", "d", "c"],
    ["f", "f_inv", "x", "y", "phi", "theta", "b", "a", "d", "c"],
]
RQ3_SOLVED = {
    "plain": {"f": {"f": "1"}, "phi": {"phi": "r/q"}, "theta": {"theta": "r/p"},
              "x": {"x": "p*r"}, "y": {"y": "q*r"}},
    "transposed": {"f": {"f": "1"}, "phi": {"phi": "1/(q*r)"},
                   "theta": {"theta": "1/(p*r)"}, "x": {"x": "p/r"},
                   "y": {"y": "q/r"}},
}


@pytest.mark.parametrize("convention", ["plain", "transposed"])
def test_four_param_derivation_records(convention):
    # f_inv solves f, x, y, theta and phi but not the block letters, and
    # nothing solves for delta_inv, so both sides mix solved and unsolved
    alg = DerivedAlgebra(four_param_deformed_r3(), convention=convention)
    assert [rec["inverse"] for rec in alg.records] == ["f_inv", "delta_inv"]
    assert [rec["unsolved"] for rec in alg.records] == RQ3_UNSOLVED
    assert alg.records[0]["solved"] == RQ3_SOLVED[convention]
    assert alg.records[1]["solved"] == {}
    assert not any(rec["added"] or rec["verified"] for rec in alg.records)


def _table_or_error(rmat, convention):
    try:
        system, _rules = derive_relation_table(rmat, convention)
    except OrientationFailure as exc:
        return "error", str(exc)
    return "table", system.to_dict()


@pytest.mark.parametrize("matrix, convention, point", [
    (jordanian_r3, "plain", {}),
    (jordanian_r3, "plain", {"m": "3/2", "n": "-2/3", "k": "5", "p": "7/4"}),
    (jordanian_r3, "plain", {"m": "2", "n": "1/3", "k": "-5", "p": "7/2"}),
    (jordanian_r3, "plain", {"p": "1+m"}),
    (jordanian_r3, "transposed", {}),
    (four_param_deformed_r3, "plain", {}),
    (four_param_deformed_r3, "transposed", {}),
    (four_param_deformed_r3, "plain", {"r": "2", "s": "-3/2", "p": "5", "q": "7/3"}),
    (four_param_deformed_r3, "transposed", {"r": "2", "s": "-3/2", "p": "5", "q": "7/3"}),
])
def test_table_over_laurent_matches_the_ratfunc_reference(monkeypatch, matrix,
                                                          convention, point):
    # the reference row-reduces the same exchange rows with every
    # coefficient converted to RatFunc; rules (lhs, rhs, tag) and
    # OrientationFailure messages must agree
    rmat = matrix()
    if point:
        rmat = rmat.substitute({v: parse(e) for v, e in point.items()})
    coeffs = [c for e in rtt_entries(rmat, convention).values()
              for c in e.values()]
    several_term = [c for c in coeffs if not isinstance(c, Laurent)]
    assert (point == {"p": "1+m"}) == bool(several_term)
    assert len(several_term) < len(coeffs)
    got = _table_or_error(rmat, convention)
    laurent_entries = rtt.rtt_entries

    def ratfunc_entries(*args):
        return {pos: {w: c.to_rf() if isinstance(c, Laurent) else c
                      for w, c in e.items()}
                for pos, e in laurent_entries(*args).items()}

    monkeypatch.setattr(rtt, "rtt_entries", ratfunc_entries)
    assert _table_or_error(rmat, convention) == got


def test_inv_e_rules_own_every_pair_whose_word_contains_e(alg):
    # the facts DerivedAlgebra._still_confluent rests on, on the symbolic system
    assert alg.schur_inv_record["added"]
    rules = alg.system.rule_list()
    assert all(r.tag.startswith("inv:e") for r in rules if "e" in r.lhs)
    assert all("e" in r.lhs for r in rules if any("e" in w for w in r.rhs))
    pairs = [p for p in alg.system.critical_pairs() if len(p[0]) <= 3]
    involve = [p for p in pairs
               if p[2].tag.startswith("inv:e") or p[4].tag.startswith("inv:e")]
    assert (len(pairs), len(involve)) == (232, 56)
    assert involve == [p for p in pairs if "e" in p[0]]
    inv_e = [r for r in rules if r.tag.startswith("inv:e")]
    assert not alg.system.new_pairs_unresolved(inv_e, max_degree=3)
