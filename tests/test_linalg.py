"""Exact elimination: solve_dense, mat_inverse and rref_sparse.

Hand-sized systems pin the contracts (inconsistency, free variables, shape
errors, singularity); a hypothesis test compares solve_dense with sympy's
reduced row echelon form on small rational systems.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jforge.errors import DimensionMismatch, SingularMatrix
from jforge.field import RF_ONE, RF_ZERO, RatFunc
from jforge.grammar import parse
from jforge.linalg import mat_identity, mat_inverse, mat_mul, rref_sparse, solve_dense


def rf_matrix(rows):
    return [[RatFunc.const(x) if isinstance(x, (int, Fraction)) else parse(x)
             for x in row] for row in rows]


def rf_vector(values):
    return [RatFunc.const(v) for v in values]


def test_solve_dense_inconsistent_is_none():
    assert solve_dense(rf_matrix([[1, 1], [2, 2]]), rf_vector([1, 3])) is None


def test_solve_dense_free_variables_are_zero():
    x = solve_dense(rf_matrix([[0, 1, 1]]), rf_vector([3]))
    assert x == rf_vector([0, 3, 0])


def test_solve_dense_symbolic_solution():
    a = rf_matrix([["m", "1"], ["0", "p"]])
    x = solve_dense(a, [parse("k"), parse("n")])
    assert x == [parse("(k*p - n)/(m*p)"), parse("n/p")]


def test_solve_dense_rhs_length_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_dense(rf_matrix([[1, 0], [0, 1]]), rf_vector([1]))


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
    b = [draw(entry) for _ in range(n)]
    return a, b


@given(linear_system())
@settings(max_examples=100, deadline=None)
def test_solve_dense_matches_sympy_rref(system):
    sympy = pytest.importorskip("sympy")
    a, b = system
    m = len(a[0])
    augmented = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                               for x in row + [rhs]] for row, rhs in zip(a, b)])
    reduced, pivots = augmented.rref()
    got = solve_dense(rf_matrix(a), rf_vector(b))
    if m in pivots:
        assert got is None
        return
    want = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        value = reduced[r, m]
        want[col] = Fraction(int(value.p), int(value.q))
    assert got is not None
    assert [x.const_value() for x in got] == want
