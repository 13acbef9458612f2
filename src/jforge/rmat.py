"""R-matrices on labeled two-fold tensor bases, and the braid consistency check.

A TensorMat stores an n^2 x n^2 matrix together with the ordered list of
index pairs labeling its rows and columns.  Keeping the pair order explicit
matters because the 3x3 family is block diagonal only in a grouped order
(pairs touching index 1 first, then the 2x2 sector), not in plain Kronecker
order.  All structural operations (products, conjugation, the Yang-Baxter
residual) convert to Kronecker order internally, so two TensorMats compare
equal exactly when they are the same operator.

Constructors cover the two deformation families used throughout:

* two_param_deformed_r2 / four_param_deformed_r3: standard multiparameter
  deformations, diagonal except for a lower triangular coupling r - 1/r.
* jordanian_r2 / jordanian_r3: their triangular (unipotent) counterparts,
  reached from the deformed family by a singular change of basis (see
  contraction.py).
* twist_2x2 / twist_3x3 / twist_probe_3x3: the unipotent conjugation
  matrices driving that change of basis.

Every entry they build is a Laurent value (laurent.py): the entries r,
1/p, 1/q and r - 1/r lie in Q[params^±1], and so does everything conjugate
and qybe_residual compute from them.

qybe_residual is sparse: it lifts R to R12, R13 and R23 as rows {column:
value} of their nonzero entries, multiplies them row by row through
field.add_terms and returns the nonzero entries of the residual, which are
few (R12 R13 R23 has 58 to 60 nonzero entries of 729 for the 3x3 family).
"""

from __future__ import annotations

import time

from . import linalg as L
from .errors import DimensionMismatch
from .field import RatFunc, add_terms
from .grammar import serialize
from .laurent import L_ONE, L_ZERO, Laurent, Substitution
from .report import CheckReport

KRON_ORDER_2 = ((1, 1), (1, 2), (2, 1), (2, 2))

# Pairs touching index 1 first, then the 2x2 sector: the order in which the
# 3x3 family is visibly block diagonal (1 + 2 + 2 + 4).
BLOCK_ORDER_3 = (
    (1, 1), (1, 2), (1, 3), (2, 1), (3, 1),
    (2, 2), (2, 3), (3, 2), (3, 3),
)


def kron_order(dim: int) -> tuple:
    return tuple((i, j) for i in range(1, dim + 1) for j in range(1, dim + 1))


class TensorMat:
    """Square matrix on an ordered basis of index pairs."""

    def __init__(self, dim: int, basis: tuple, rows: list):
        basis = tuple(tuple(p) for p in basis)
        if len(basis) != dim * dim or set(basis) != set(kron_order(dim)):
            raise DimensionMismatch("basis must enumerate all index pairs")
        if L.mat_shape(rows) != (dim * dim, dim * dim):
            raise DimensionMismatch("entry grid does not match the basis size")
        self.dim = dim
        self.basis = basis
        self.rows = rows
        self._index = {p: i for i, p in enumerate(basis)}

    # -- access ------------------------------------------------------------
    def entry(self, row_pair, col_pair) -> Laurent | RatFunc:
        return self.rows[self._index[tuple(row_pair)]][self._index[tuple(col_pair)]]

    def params(self) -> set:
        out = set()
        for row in self.rows:
            for x in row:
                out |= x.variables()
        return out

    # -- reshaping -----------------------------------------------------------
    def in_kron_order(self) -> list:
        """Dense entries with both indices in Kronecker (row-major) order."""
        order = kron_order(self.dim)
        pos = [self._index[p] for p in order]
        return [[self.rows[i][j] for j in pos] for i in pos]

    @classmethod
    def from_kron_order(cls, dim: int, dense: list, basis: tuple) -> "TensorMat":
        order = kron_order(dim)
        where = {p: i for i, p in enumerate(order)}
        pos = [where[tuple(p)] for p in basis]
        rows = [[dense[i][j] for j in pos] for i in pos]
        return cls(dim, basis, rows)

    # -- maps ----------------------------------------------------------------
    def substitute(self, bindings: dict) -> "TensorMat":
        """The entries with the bindings put in by one laurent.Substitution;
        self when there are none."""
        if not bindings:
            return self
        value = Substitution(bindings)
        return TensorMat(self.dim, self.basis,
                         [[value(x) for x in row] for row in self.rows])

    # -- structure -------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, TensorMat):
            return NotImplemented
        return self.dim == other.dim and L.mat_eq(
            self.in_kron_order(), other.in_kron_order()
        )

    def __repr__(self):
        return f"TensorMat(dim={self.dim}, basis={self.basis})"

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis": [list(p) for p in self.basis],
            "entries": [[serialize(x) for x in row] for row in self.rows],
        }


def _zeros(n: int) -> list:
    return [[L_ZERO] * n for _ in range(n)]


def two_param_deformed_r2() -> TensorMat:
    """4x4 deformed matrix in parameters r, s (Kronecker order).

    Diagonal (r, s, 1/s, r) with the coupling r - 1/r below the diagonal at
    row (2,1), column (1,2).
    """
    r, s = Laurent.var("r"), Laurent.var("s")
    rows = _zeros(4)
    order = KRON_ORDER_2
    idx = {p: i for i, p in enumerate(order)}
    diag = {(1, 1): r, (1, 2): s, (2, 1): s.inverse(), (2, 2): r}
    for p, v in diag.items():
        rows[idx[p]][idx[p]] = v
    rows[idx[(2, 1)]][idx[(1, 2)]] = r - r.inverse()
    return TensorMat(2, order, rows)


def four_param_deformed_r3() -> TensorMat:
    """9x9 deformed matrix in parameters r, s, p, q (grouped block order).

    The grouped order shows the shape: a 1x1 block r on (1,1); diagonal
    blocks diag(1/p, 1/q) and diag(p, q) on the pairs touching index 1, each
    carrying the coupling r - 1/r from column (1,j) to row (j,1); and the
    two-parameter 4x4 family on the 2x2 sector.
    """
    r, s = Laurent.var("r"), Laurent.var("s")
    p, q = Laurent.var("p"), Laurent.var("q")
    lam = r - r.inverse()
    order = BLOCK_ORDER_3
    idx = {pair: i for i, pair in enumerate(order)}
    rows = _zeros(9)
    diag = {
        (1, 1): r,
        (1, 2): p.inverse(), (1, 3): q.inverse(),
        (2, 1): p, (3, 1): q,
        (2, 2): r, (2, 3): s, (3, 2): s.inverse(), (3, 3): r,
    }
    for pair, v in diag.items():
        rows[idx[pair]][idx[pair]] = v
    for low, high in (((2, 1), (1, 2)), ((3, 1), (1, 3)), ((3, 2), (2, 3))):
        rows[idx[low]][idx[high]] = lam
    return TensorMat(3, order, rows)


def jordanian_r2() -> TensorMat:
    """4x4 triangular matrix in parameters m, n (Kronecker order)."""
    m, n = Laurent.var("m"), Laurent.var("n")
    one, zero = L_ONE, L_ZERO
    grid = [
        [one, zero, zero, zero],
        [m, one, zero, zero],
        [-m, zero, one, zero],
        [m * n, n, -n, one],
    ]
    return TensorMat(2, KRON_ORDER_2, grid)


def jordanian_r3() -> TensorMat:
    """9x9 triangular matrix in parameters m, n, k, p (grouped block order).

    Block diagonal: 1 on (1,1); a 2x2 unipotent-scaled block and its inverse
    on the pairs touching index 1; the triangular 4x4 family on the 2x2
    sector.
    """
    k, p = Laurent.var("k"), Laurent.var("p")
    p_inv = p.inverse()
    order = BLOCK_ORDER_3
    idx = {pair: i for i, pair in enumerate(order)}
    rows = _zeros(9)
    rows[idx[(1, 1)]][idx[(1, 1)]] = L_ONE
    # inverse block on ((1,2),(1,3))
    rows[idx[(1, 2)]][idx[(1, 2)]] = p_inv
    rows[idx[(1, 3)]][idx[(1, 2)]] = -k * p_inv * p_inv
    rows[idx[(1, 3)]][idx[(1, 3)]] = p_inv
    # direct block on ((2,1),(3,1))
    rows[idx[(2, 1)]][idx[(2, 1)]] = p
    rows[idx[(3, 1)]][idx[(2, 1)]] = k
    rows[idx[(3, 1)]][idx[(3, 1)]] = p
    sector = jordanian_r2()
    sub = ((2, 2), (2, 3), (3, 2), (3, 3))
    for a, pa in enumerate(sub):
        for b, pb in enumerate(sub):
            v = sector.rows[a][b]
            if not v.is_zero():
                rows[idx[pa]][idx[pb]] = v
    return TensorMat(3, order, rows)


def twist_2x2() -> list:
    """Unipotent 2x2 change of basis: identity plus eta below the diagonal."""
    eta = Laurent.var("eta")
    return [[L_ONE, L_ZERO], [eta, L_ONE]]


def twist_3x3() -> list:
    """The 2x2 twist embedded in the lower 2x2 block of a 3x3 identity."""
    eta = Laurent.var("eta")
    g = L.mat_identity(3)
    g[2][1] = eta
    return g


def twist_probe_3x3() -> list:
    """Deliberately misplaced twist, eta at row 3 column 1; used to show the
    singular limit fails when the twist couples the wrong indices."""
    eta = Laurent.var("eta")
    g = L.mat_identity(3)
    g[2][0] = eta
    return g


def conjugate(rmat: TensorMat, g: list) -> TensorMat:
    """(g^-1 (x) g^-1) R (g (x) g), preserving the basis order of R."""
    n, m = L.mat_shape(g)
    if n != m or n != rmat.dim:
        raise DimensionMismatch("twist size does not match the matrix")
    gg = L.kron(g, g)
    gi = L.mat_inverse(g)
    gigi = L.kron(gi, gi)
    dense = L.mat_mul(gigi, L.mat_mul(rmat.in_kron_order(), gg))
    return TensorMat.from_kron_order(rmat.dim, dense, rmat.basis)


def _lifted(dense: list, dim: int, slots: tuple) -> list:
    """The n^2 x n^2 matrix dense acting on two slots of the triple tensor
    space, as n^3 sparse rows {column: value} of its nonzero entries."""
    strides = (dim * dim, dim, 1)
    a, b = strides[slots[0]], strides[slots[1]]
    passive = strides[({0, 1, 2} - set(slots)).pop()]
    rows = [{} for _ in range(dim ** 3)]
    for ij, row in enumerate(dense):
        i, j = divmod(ij, dim)
        for kl, v in enumerate(row):
            if v.is_zero():
                continue
            k, l = divmod(kl, dim)
            for t in range(dim):
                rows[i * a + j * b + t * passive][k * a + l * b + t * passive] = v
    return rows


def _times(rows: list, other: list) -> list:
    """The sparse product rows * other, row by row."""
    out = []
    for row in rows:
        acc = {}
        for mid, x in row.items():
            add_terms(acc, other[mid].items(), x)
        out.append(acc)
    return out


def qybe_residual(rmat: TensorMat) -> dict:
    """R12 R13 R23 - R23 R13 R12 on the triple tensor space, as its nonzero
    entries {(row, column): value} in row-major (Kronecker) order."""
    dense = rmat.in_kron_order()
    r12, r13, r23 = (_lifted(dense, rmat.dim, slots)
                     for slots in ((0, 1), (0, 2), (1, 2)))
    left = _times(_times(r12, r13), r23)
    right = _times(_times(r23, r13), r12)
    out = {}
    for i, (acc, sub) in enumerate(zip(left, right)):
        add_terms(acc, ((j, -v) for j, v in sub.items()))
        for j in sorted(acc):
            out[i, j] = acc[j]
    return out


def qybe_check(rmat: TensorMat, name: str = "") -> CheckReport:
    """Full symbolic braid-consistency check with per-entry diagnostics."""
    label = f"qybe:{name}" if name else "qybe"
    report = CheckReport("qybe")
    start = time.perf_counter()
    residual = qybe_residual(rmat)
    bad = [{"row": i, "col": j, "value": serialize(v)}
           for (i, j), v in list(residual.items())[:5]]
    ms = (time.perf_counter() - start) * 1000.0
    report.add(label, not bad, ms=ms, dim=rmat.dim, nonzero_entries=bad)
    return report

