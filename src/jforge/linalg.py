"""Exact linear algebra over the rational-function field.

Two shapes of data move through here.  Dense matrices (lists of lists of
RatFunc) support products, inverses and equality; they stay small, at most
9x9.  Sparse rows (dicts keyed by arbitrary hashable column labels) feed the
Gauss-Jordan reduction used to turn large relation sets into a canonical
reduced basis.  Everything is exact; a pivot is whatever is structurally
nonzero.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularMatrix
from .field import RF_ONE, RF_ZERO


def mat_identity(n: int) -> list:
    return [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]


def mat_shape(a: list) -> tuple:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise DimensionMismatch("ragged matrix")
    return rows, cols


def mat_mul(a: list, b: list) -> list:
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise DimensionMismatch(f"cannot multiply {n}x{k} by {k2}x{m}")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = RF_ZERO
            for t in range(k):
                aij = a[i][t]
                if aij.is_zero():
                    continue
                btj = b[t][j]
                if btj.is_zero():
                    continue
                acc = acc + aij * btj
            row.append(acc)
        out.append(row)
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
    """Gauss-Jordan inverse; raises SingularMatrix when rank drops."""
    n, m = mat_shape(a)
    if n != m:
        raise DimensionMismatch("inverse of a non-square matrix")
    work = [list(row) + ident_row for row, ident_row in zip(a, mat_identity(n))]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if not work[r][col].is_zero()), None
        )
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv = work[col][col].inverse()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col:
                factor = work[r][col]
                if not factor.is_zero():
                    work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def solve_dense(a: list, b: list):
    """One solution of A x = b, or None when inconsistent.

    Underdetermined systems get free variables set to zero, so the answer is
    deterministic.  b is a flat list.
    """
    n, m = mat_shape(a)
    if len(b) != n:
        raise DimensionMismatch("right-hand side length mismatch")
    work = [list(row) + [rhs] for row, rhs in zip(a, b)]
    pivots = []
    row = 0
    for col in range(m):
        pivot_row = next(
            (r for r in range(row, n) if not work[r][col].is_zero()), None
        )
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        inv = work[row][col].inverse()
        work[row] = [x * inv for x in work[row]]
        for r in range(n):
            if r != row:
                factor = work[r][col]
                if not factor.is_zero():
                    work[r] = [x - factor * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if not work[r][m].is_zero():
            return None
    x = [RF_ZERO] * m
    for r, col in enumerate(pivots):
        x[col] = work[r][m]
    return x


def rref_sparse(rows: list, column_order: list) -> tuple:
    """Reduced row echelon form of sparse rows.

    rows are dicts {column_label: RatFunc}; column_order fixes which label
    counts as leading (earlier = more significant).  Returns (reduced, pivot
    labels), with reduced rows monic in their pivot, fully inter-reduced,
    zero rows dropped, and ordered by pivot position.
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
        inv = hit[col].inverse()
        hit = {c: v * inv for c, v in hit.items()}
        for bucket in (live, reduced):
            for i, row in enumerate(bucket):
                factor = row.get(col)
                if factor is None:
                    continue
                new = dict(row)
                for c, v in hit.items():
                    acc = new.get(c, RF_ZERO) - factor * v
                    if acc.is_zero():
                        new.pop(c, None)
                    else:
                        new[c] = acc
                bucket[i] = new
        reduced.append(hit)
        pivot_cols.append(col)
        if not live:
            break
    return reduced, pivot_cols


def row_span_contains(reduced: list, pivot_cols: list, row: dict, column_order: list) -> bool:
    """Membership of a sparse row in the span of an rref basis."""
    rem = {c: v for c, v in row.items() if not v.is_zero()}
    pivot_of = dict(zip(pivot_cols, reduced))
    for col in column_order:
        if col not in rem:
            continue
        basis_row = pivot_of.get(col)
        if basis_row is None:
            return False
        factor = rem[col]
        for c, v in basis_row.items():
            acc = rem.get(c, RF_ZERO) - factor * v
            if acc.is_zero():
                rem.pop(c, None)
            else:
                rem[c] = acc
    return not rem
