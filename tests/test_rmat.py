"""R-matrix constructors: braid consistency, twist conjugation, fixtures.

The braid consistency proof is symbolic; an independent numeric
cross-check evaluates the matrices at random rational points with exact
Fraction arithmetic, and a sympy oracle re-verifies the triple-product
identity for the 9x9 triangular matrix.
"""

import json
import os
import random
from fractions import Fraction

import pytest

from jforge import linalg as L
from jforge.errors import DivisionByZero
from jforge.grammar import parse, serialize
from jforge.laurent import L_ONE, L_ZERO, coerce
from jforge.rmat import (
    TensorMat,
    conjugate,
    four_param_deformed_r3,
    jordanian_r2,
    jordanian_r3,
    kron_order,
    qybe_check,
    qybe_residual,
    twist_2x2,
    twist_3x3,
    two_param_deformed_r2,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

ALL_BUILDERS = {
    "rq2": two_param_deformed_r2,
    "rq3": four_param_deformed_r3,
    "rj2": jordanian_r2,
    "rj3": jordanian_r3,
}


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
def test_braid_consistency_symbolic(name):
    report = qybe_check(ALL_BUILDERS[name](), name=name)
    assert report.passed, report.to_text()
    assert report.checks[0].name == f"qybe:{name}"
    assert qybe_residual(ALL_BUILDERS[name]()) == {}


def dense_residual_entries(mat: TensorMat) -> list:
    """The first five nonzero entries of R12 R13 R23 - R23 R13 R12 in
    row-major order, from dense Kronecker products: the reference for the
    sparse residual."""
    dim = mat.dim
    eye = L.mat_identity(dim)
    r12 = L.kron(mat.in_kron_order(), eye)
    r23 = L.kron(eye, mat.in_kron_order())
    # R13 is R12 with the last two slots swapped on both sides
    flip = {(a * dim + b) * dim + c: (a * dim + c) * dim + b
            for a in range(dim) for b in range(dim) for c in range(dim)}
    swap = [[L_ONE if flip[i] == j else L_ZERO for j in range(dim ** 3)]
            for i in range(dim ** 3)]
    r13 = L.mat_mul(swap, L.mat_mul(r12, swap))
    left = L.mat_mul(L.mat_mul(r12, r13), r23)
    right = L.mat_mul(L.mat_mul(r23, r13), r12)
    out = []
    for i, (row_l, row_r) in enumerate(zip(left, right)):
        for j, (x, y) in enumerate(zip(row_l, row_r)):
            if not (x - y).is_zero():
                out.append({"row": i, "col": j, "value": serialize(x - y)})
    return out[:5]


def perturbed(mat: TensorMat, row: int, col: int, shift: str) -> TensorMat:
    """mat with its Kronecker-order entry (row, col) shifted by shift."""
    dense = mat.in_kron_order()
    dense[row][col] = dense[row][col] + parse(shift)
    return TensorMat.from_kron_order(mat.dim, dense, kron_order(mat.dim))


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
@pytest.mark.parametrize("where, shift", [((0, 1), "p"), ((-1, 0), "k"),
                                          ((1, 1), "m"), ((-1, -2), "1/(1 + n)")])
def test_sparse_residual_reports_as_the_dense_products(name, where, shift):
    mat = ALL_BUILDERS[name]()
    size = mat.dim * mat.dim
    bad = perturbed(mat, where[0] % size, where[1] % size, shift)
    report = qybe_check(bad, name=name)
    want = dense_residual_entries(bad)
    assert want and not report.passed
    assert report.checks[0].details["nonzero_entries"] == want


def test_sparse_residual_pins_a_failing_detail():
    report = qybe_check(perturbed(four_param_deformed_r3(), 0, 0, "p"), name="rq3")
    value = "(-p^2*r^3 - p*r^4 + p^2*r + p)/(r^2)"
    assert report.checks[0].details == {"dim": 3, "nonzero_entries": [
        {"row": 9, "col": 1, "value": value}, {"row": 18, "col": 2, "value": value}]}


def random_point(mat: TensorMat, rng: random.Random) -> TensorMat:
    # keep values away from the degenerate locus (zeros, equal pairs)
    vals = {}
    seen = set()
    for v in sorted(mat.params()):
        while True:
            f = (rng.randint(2, 97), rng.randint(1, 13))
            if f not in seen:
                seen.add(f)
                break
        vals[v] = parse(f"{f[0]}/{f[1]}")
    return mat.substitute(vals)


@pytest.mark.parametrize("name", ("rq3", "rj3"))
def test_braid_consistency_numeric_points(name):
    rng = random.Random(20260819)
    mat = ALL_BUILDERS[name]()
    for _ in range(20):
        assert qybe_check(random_point(mat, rng)).passed


VALUES = {"m": Fraction(3, 2), "n": Fraction(-2, 3), "k": Fraction(5), "p": Fraction(7, 4),
          "r": Fraction(5, 3), "s": Fraction(-3, 4), "q": Fraction(2)}


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
def test_substitute_maps_every_entry_as_the_ratfunc_route(name):
    mat = ALL_BUILDERS[name]()
    point = {v: VALUES[v] for v in mat.params()}
    poles = []
    for binds in (point, {"p": parse("1 + m")}, {"r": parse("1 + s")}, {"p": 0}):
        try:
            want = [[coerce(x.to_rf().substitute(binds)) for x in row] for row in mat.rows]
        except DivisionByZero as exc:
            assert str(exc) == "substitution sends denominator to zero"
            with pytest.raises(DivisionByZero, match="^substitution sends denominator to zero$"):
                mat.substitute(binds)
            poles.append(binds)
            continue
        got = mat.substitute(binds).rows
        assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]
        assert got == want
    assert poles == ([{"p": 0}] if "p" in mat.params() else [])


def test_parameter_inventories():
    assert sorted(two_param_deformed_r2().params()) == ["r", "s"]
    assert sorted(four_param_deformed_r3().params()) == ["p", "q", "r", "s"]
    assert sorted(jordanian_r2().params()) == ["m", "n"]
    assert sorted(jordanian_r3().params()) == ["k", "m", "n", "p"]


def test_twist_conjugation_matches_fixture():
    got = conjugate(two_param_deformed_r2(), twist_2x2()).to_dict()
    with open(os.path.join(FIXTURES, "rq2_conjugated_by_g.json")) as fh:
        want = json.load(fh)
    assert got == want


def test_conjugated_matrix_keeps_braid_consistency():
    # similarity transforms preserve the triple-product identity
    assert qybe_check(conjugate(two_param_deformed_r2(), twist_2x2())).passed
    assert qybe_check(conjugate(four_param_deformed_r3(), twist_3x3())).passed


def test_twist_difference_enters_off_diagonal():
    base = two_param_deformed_r2()
    moved = conjugate(base, twist_2x2())
    diff = [
        (rp, cp)
        for rp in moved.basis for cp in moved.basis
        if moved.entry(rp, cp) != base.entry(rp, cp)
    ]
    assert diff, "conjugation must move at least one entry"
    eta_terms = [
        moved.entry(rp, cp) for rp, cp in diff
        if "eta" in {v for v in moved.entry(rp, cp).variables()}
    ]
    assert eta_terms, "the twist strength must appear in moved entries"


def test_classical_specialization_is_identity():
    one, zero = parse("1"), parse("0")
    classical = {
        "rq2": {"r": one, "s": one},
        "rq3": {"r": one, "s": one, "p": one, "q": one},
        "rj2": {"m": zero, "n": zero},
        "rj3": {"m": zero, "n": zero, "k": zero, "p": one},
    }
    for name, binds in classical.items():
        mat = ALL_BUILDERS[name]().substitute(binds)
        for rp in mat.basis:
            for cp in mat.basis:
                want = one if rp == cp else zero
                assert mat.entry(rp, cp) == want, (name, rp, cp)


def test_sympy_oracle_on_triangular_r3():
    sympy = pytest.importorskip("sympy")
    mat = jordanian_r3()
    syms = {v: sympy.Symbol(v) for v in mat.params()}

    def to_sympy(dense):
        return sympy.Matrix(
            [[sympy.sympify(serialize(x), locals=syms) for x in row] for row in dense])

    n = mat.dim * mat.dim
    dense = to_sympy(mat.in_kron_order())
    eye = sympy.eye(mat.dim)
    r12 = sympy.Matrix(sympy.kronecker_product(dense, eye))
    r23 = sympy.Matrix(sympy.kronecker_product(eye, dense))
    # R13 via the flip of the last two slots applied to R12
    perm = sympy.zeros(n * mat.dim, n * mat.dim)
    for i in range(mat.dim):
        for j in range(mat.dim):
            for k in range(mat.dim):
                row = (i * mat.dim + j) * mat.dim + k
                col = (i * mat.dim + k) * mat.dim + j
                perm[row, col] = 1
    r13 = perm * r12 * perm
    lhs = r12 * r13 * r23
    rhs = r23 * r13 * r12
    assert sympy.simplify(lhs - rhs) == sympy.zeros(n * mat.dim, n * mat.dim)
