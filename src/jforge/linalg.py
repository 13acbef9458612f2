"""Exact linear algebra over the rational-function field.

Two shapes of data move through here.  Dense matrices (lists of lists of
field values) support products, inverses and equality; they stay small,
at most 9x9.  Sparse rows (dicts keyed by arbitrary hashable column
labels) feed the Gauss-Jordan reduction used to turn large relation sets
into a canonical reduced basis.  Entries are RatFunc or Laurent values
(laurent.py): the routines only use is_zero, inverse, products and sums,
so either type, or a mix, passes through.

rref_sparse is the one elimination routine: solve_dense reduces [A | b]
and mat_inverse reduces [A | I] through it, with integer column labels,
and rtt builds its own sparse rows for the relation table and for the
adjoined inverses (rtt._solve_in_span, [A | b_1 ... b_k] in one call).
Everything is exact; a pivot is whatever is structurally nonzero.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularMatrix
from .field import RF_ONE, RF_ZERO, add_into


def mat_identity(n: int) -> list:
    return [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]


def mat_shape(a: list) -> tuple:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise DimensionMismatch("ragged matrix")
    return rows, cols


def mat_mul(a: list, b: list) -> list:
    """a * b, skipping zero entries: each row of b is scanned once."""
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise DimensionMismatch(f"cannot multiply {n}x{k} by {k2}x{m}")
    b_rows = [[(j, v) for j, v in enumerate(row) if not v.is_zero()] for row in b]
    out = []
    for row in a:
        acc = {}
        for ait, b_row in zip(row, b_rows):
            if ait.is_zero():
                continue
            for j, btj in b_row:
                add_into(acc, j, ait * btj)
        out.append([acc.get(j, RF_ZERO) for j in range(m)])
    return out


def mat_sub(a: list, b: list) -> list:
    if mat_shape(a) != mat_shape(b):
        raise DimensionMismatch("shape mismatch in subtraction")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a: list, b: list) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def mat_is_zero(a: list) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_map(a: list, fn) -> list:
    return [[fn(x) for x in row] for row in a]


def kron(a: list, b: list) -> list:
    """Kronecker product; row/column blocks follow the left factor."""
    n, m = mat_shape(a)
    p, q = mat_shape(b)
    out = []
    for i in range(n):
        for k in range(p):
            row = []
            for j in range(m):
                aij = a[i][j]
                if aij.is_zero():
                    row.extend([RF_ZERO] * q)
                else:
                    row.extend([aij * b[k][l] for l in range(q)])
            out.append(row)
    return out


def mat_inverse(a: list) -> list:
    """Gauss-Jordan inverse of [A | I]; raises SingularMatrix when rank drops."""
    n, m = mat_shape(a)
    if n != m:
        raise DimensionMismatch("inverse of a non-square matrix")
    rows = [dict(enumerate([*row, *ident])) for row, ident in zip(a, mat_identity(n))]
    reduced, pivots = rref_sparse(rows, list(range(2 * n)))
    # [A | I] has rank n, so pivots has length n; the first column of A
    # left without a pivot is where the rank of A drops
    for col, pivot in enumerate(pivots):
        if pivot != col:
            raise SingularMatrix(f"no pivot in column {col}")
    return [[row.get(n + j, RF_ZERO) for j in range(n)] for row in reduced]


def solve_dense(a: list, b: list, locus: list = None):
    """One solution of A x = b, or None when inconsistent.

    Underdetermined systems get free variables set to zero, so the answer is
    deterministic.  b is a flat list.  [A | b] is reduced by rref_sparse
    (which appends its pivots to locus, if given); the system is
    inconsistent exactly when the column of b is a pivot.
    """
    n, m = mat_shape(a)
    if len(b) != n:
        raise DimensionMismatch("right-hand side length mismatch")
    rows = [dict(enumerate([*row, rhs])) for row, rhs in zip(a, b)]
    reduced, pivots = rref_sparse(rows, list(range(m + 1)), locus)
    if pivots and pivots[-1] == m:
        return None
    x = [RF_ZERO] * m
    for row, col in zip(reduced, pivots):
        x[col] = row.get(m, RF_ZERO)
    return x


def rref_sparse(rows: list, column_order: list, locus: list = None) -> tuple:
    """Reduced row echelon form of sparse rows.

    rows are dicts {column_label: RatFunc}; column_order fixes which label
    counts as leading (earlier = more significant).  Returns (reduced, pivot
    labels), with reduced rows monic in their pivot, fully inter-reduced,
    zero rows dropped, and ordered by pivot position.  The result is unique
    for a fixed column order.  With locus given, each pivot value is
    appended to it as a one-value tuple before it is inverted: wherever
    every entry is defined and every such value nonzero, the same steps
    reduce the specialized rows, so the reduced form specializes (see
    jforge.specialize).
    """
    col_index = {c: i for i, c in enumerate(column_order)}
    live = []
    for row in rows:
        cleaned = {c: v for c, v in row.items() if not v.is_zero()}
        if cleaned:
            unknown = set(cleaned) - set(col_index)
            if unknown:
                raise DimensionMismatch(f"labels outside column order: {sorted(map(str, unknown))[:3]}")
            live.append(cleaned)
    reduced = []
    pivot_cols = []
    for col in column_order:
        hit = next((r for r in live if col in r), None)
        if hit is None:
            continue
        live.remove(hit)
        if locus is not None:
            locus.append((hit[col],))
        inv = hit[col].inverse()
        hit = {c: v * inv for c, v in hit.items()}
        for bucket in (live, reduced):
            for i, row in enumerate(bucket):
                factor = row.get(col)
                if factor is None:
                    continue
                factor = -factor
                new = dict(row)
                for c, v in hit.items():
                    add_into(new, c, factor * v)
                bucket[i] = new
        reduced.append(hit)
        pivot_cols.append(col)
        if not live:
            break
    return reduced, pivot_cols
