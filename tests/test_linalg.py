"""Exact elimination: solve_dense, mat_inverse and rref_sparse.

Hand-sized systems pin the contracts (inconsistency, free variables, shape
errors, singularity); a hypothesis test compares each target of one
solve_dense call with sympy's reduced row echelon form of [A | b] on small
rational systems, and another compares rref_sparse, row by row and
locus entry by locus entry, with the scan it replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge.errors import DimensionMismatch, SingularMatrix
from jforge.field import RF_ONE, RF_ZERO, RatFunc, add_terms
from jforge.grammar import parse
from jforge.laurent import coerce
from jforge.linalg import (
    add_to_locus,
    mat_identity,
    mat_inverse,
    mat_mul,
    rref_sparse,
    solve_dense,
)


def rf_matrix(rows):
    return [[RatFunc.const(x) if isinstance(x, (int, Fraction)) else parse(x)
             for x in row] for row in rows]


def rf_vector(values):
    return [RatFunc.const(v) for v in values]


def columns_of(rows):
    """The columns of the matrix rows as solve_dense's sparse vectors,
    unknown j keyed by j and row key i by i."""
    return {j: {i: row[j] for i, row in enumerate(rows) if not row[j].is_zero()}
            for j in range(len(rows[0]))}


def target_of(values):
    return {i: v for i, v in enumerate(values) if not v.is_zero()}


def test_solve_dense_inconsistent_is_none():
    a = columns_of(rf_matrix([[1, 1], [2, 2]]))
    assert solve_dense(a, [target_of(rf_vector([1, 3]))]) == [None]


def test_solve_dense_free_variables_are_zero():
    a = columns_of(rf_matrix([[0, 1, 1]]))
    assert solve_dense(a, [target_of(rf_vector([3]))]) == [{1: RatFunc.const(3)}]


def test_solve_dense_symbolic_solution():
    a = columns_of(rf_matrix([["m", "1"], ["0", "p"]]))
    x = solve_dense(a, [target_of([parse("k"), parse("n")])])
    assert x == [{0: parse("(k*p - n)/(m*p)"), 1: parse("n/p")}]


def test_second_inconsistent_target_without_a_pivot_is_unsolved():
    # span of w0; targets w1 (takes the pivot), 2*w1 (no pivot of its own)
    # and w0 (solvable after both)
    columns = {"g": {("w0",): coerce(1)}}
    targets = [{("w1",): coerce(1)}, {("w1",): coerce(2)},
               {("w0",): coerce(3)}]
    assert solve_dense(columns, targets) == [None, None, {"g": coerce(3)}]


def test_mat_inverse_is_two_sided():
    a = rf_matrix([["m", "1", "0"], ["k", "p", "n"], ["0", "1", "1"]])
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == mat_identity(3)
    assert mat_mul(inv, a) == mat_identity(3)


@pytest.mark.parametrize("rows, col", [
    ([[1, 2], [2, 4]], 1),
    ([[0, 1], [0, 1]], 0),
    ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 2),
])
def test_mat_inverse_rank_deficient(rows, col):
    with pytest.raises(SingularMatrix, match=f"no pivot in column {col}"):
        mat_inverse(rf_matrix(rows))


def test_mat_inverse_non_square():
    with pytest.raises(DimensionMismatch):
        mat_inverse(rf_matrix([[1, 0, 0], [0, 1, 0]]))


def test_rref_sparse_rejects_unknown_labels():
    with pytest.raises(DimensionMismatch, match="outside column order"):
        rref_sparse([{"a": RF_ONE, "z": RF_ONE}], ["a", "b"])


def test_rref_sparse_drops_zero_rows_and_orders_by_pivot():
    rows = [{"b": RF_ONE}, {"a": RF_ZERO}, {"a": parse("2"), "b": parse("4")}]
    reduced, pivots = rref_sparse(rows, ["a", "b"])
    assert pivots == ["a", "b"]
    assert reduced == [{"a": RF_ONE}, {"b": RF_ONE}]


entry = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def linear_system(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    a = [[draw(entry) for _ in range(m)] for _ in range(n)]
    targets = [[draw(entry) for _ in range(n)]
               for _ in range(draw(st.integers(1, 3)))]
    return a, targets


@given(linear_system())
@settings(max_examples=100, deadline=None)
def test_solve_dense_matches_sympy_rref(system):
    # every target of one call against sympy's rref of [A | b_j] alone
    sympy = pytest.importorskip("sympy")
    a, targets = system
    m = len(a[0])
    got = solve_dense(columns_of(rf_matrix(a)),
                      [target_of(rf_vector(b)) for b in targets])
    assert len(got) == len(targets)
    for b, sol in zip(targets, got):
        augmented = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                   for x in row + [rhs]] for row, rhs in zip(a, b)])
        reduced, pivots = augmented.rref()
        if m in pivots:
            assert sol is None
            continue
        want = {}
        for r, col in enumerate(pivots):
            value = reduced[r, m]
            if value != 0:
                want[col] = Fraction(int(value.p), int(value.q))
        assert sol is not None
        assert sol == want


def rref_by_scan(rows, column_order, locus):
    """The reference elimination: each pivot row found by scanning the live
    rows in input order, each pivot eliminated from every row that holds it."""
    live = [{c: v for c, v in row.items() if not v.is_zero()} for row in rows]
    live = [row for row in live if row]
    reduced, pivots = [], []
    for col in column_order:
        hit = next((r for r in live if col in r), None)
        if hit is None:
            continue
        live.remove(hit)
        add_to_locus(locus, (hit[col],))
        inv = hit[col].inverse()
        hit = {c: v * inv for c, v in hit.items()}
        for bucket in (live, reduced):
            for i, row in enumerate(bucket):
                if col in row:
                    new = dict(row)
                    add_terms(new, hit.items(), -row[col])
                    bucket[i] = new
        reduced.append(hit)
        pivots.append(col)
    return reduced, pivots


symbolic_entry = st.sampled_from(["0", "0", "0", "1", "-1", "2", "m", "m + 1", "1/2*m", "n - m"])


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(symbolic_entry, min_size=5, max_size=5), min_size=1, max_size=n)),
    st.permutations(range(5)))
@settings(max_examples=100, deadline=None)
def test_rref_sparse_picks_the_rows_a_scan_picks(rows, order):
    # the same pivot rows, so the same reduced rows, pivots and locus, in
    # the same order, as the scan over the live rows
    sparse = [{j: coerce(parse(x)) for j, x in enumerate(row)} for row in rows]
    want_locus, got_locus = [], []
    want = rref_by_scan(sparse, list(order), want_locus)
    got = rref_sparse(sparse, list(order), got_locus)
    assert [list(r.items()) for r in got[0]] == [list(r.items()) for r in want[0]]
    assert got[1] == want[1]
    assert got_locus == want_locus
