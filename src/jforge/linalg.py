"""Exact linear algebra over the rational-function field.

Two shapes of data move through here.  Dense matrices (lists of lists of
field values) support products, inverses and equality; they stay small,
at most 9x9 (the Yang-Baxter residual on 27x27, mostly zero, is taken on
sparse rows in rmat).  Sparse rows (dicts keyed by arbitrary hashable column
labels) feed the Gauss-Jordan reduction used to turn large relation sets
into a canonical reduced basis.  Entries are RatFunc or Laurent values
(laurent.py): the routines only use is_zero, inverse, products and sums,
so either type, or a mix, passes through.  The zero and one they fill in
are L_ZERO and L_ONE, so a product or inverse of Laurent matrices (the
R-matrices and their twists) stays Laurent.

rref_sparse is the one elimination routine: mat_inverse reduces [A | I]
through it, rtt reduces the relation table through it, and solve_dense,
the one linear solver, reduces [A | b_1 ... b_k] through it in one call
for the adjoined inverses and the block inverse.  Everything is exact; a
pivot is whatever is structurally nonzero.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularMatrix
from .field import add_terms
from .laurent import L_ONE, L_ZERO


def add_to_locus(locus: list, entry: tuple) -> None:
    """Append entry to a degeneracy locus (see jforge.specialize) unless an
    equal entry is there already.

    Entries are compared with tuple ==, not looked up by hash: hashing a
    Laurent value builds its RatFunc.
    """
    if entry not in locus:
        locus.append(entry)


def mat_identity(n: int) -> list:
    return [[L_ONE if i == j else L_ZERO for j in range(n)] for i in range(n)]


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
            if not ait.is_zero():
                add_terms(acc, b_row, ait)
        out.append([acc.get(j, L_ZERO) for j in range(m)])
    return out


def mat_eq(a: list, b: list) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


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
                    row.extend([L_ZERO] * q)
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
    return [[row.get(n + j, L_ZERO) for j in range(n)] for row in reduced]


# The name solve_dense is kept although the solver is sparse: the benchmark's
# tracer (perfbench/tracer.py) wraps jforge.linalg.solve_dense by name.
def solve_dense(columns: dict, targets: list, locus: list = None) -> list:
    """For each target b, one solution x of sum_u x_u * columns[u] = b.

    columns maps each unknown to a sparse vector {row key: value}; its
    insertion order is the pivot preference.  targets are sparse vectors
    over the same row keys.  One elimination serves every target: the
    sparse rows [A | b_1 ... b_k], one per row key in sorted key order,
    are reduced by rref_sparse.  A solution is {unknown: nonzero value},
    read off the rows whose pivot is an unknown with free unknowns set to
    zero, so by uniqueness of the reduced form it equals what a call with
    that target alone gives.  Target j is inconsistent, and gets None,
    exactly when some row whose pivot is a target column has a nonzero
    entry in column j; whether column j is itself a pivot does not decide
    it, because an earlier inconsistent target may already have taken the
    pivot j would need.  With locus given, the pivots go to it, and for
    each inconsistent target the entries that make it so, as one tuple: j
    stays inconsistent wherever one of them is nonzero.
    """
    keys = list(columns)
    m = len(keys)
    rows: dict = {}
    for col, u in enumerate(keys):
        for r, c in columns[u].items():
            rows.setdefault(r, {})[col] = c
    for j, target in enumerate(targets):
        for r, c in target.items():
            rows.setdefault(r, {})[m + j] = c
    reduced, pivots = rref_sparse([rows[r] for r in sorted(rows)],
                                  list(range(m + len(targets))), locus)
    out = [{} for _ in targets]
    witnesses = {}
    # pivots are in column order, so every A row comes before a target row
    for row, pivot in zip(reduced, pivots):
        for col, v in row.items():
            if col < m:
                continue
            if pivot < m:
                out[col - m][keys[pivot]] = v
            else:
                out[col - m] = None
                witnesses.setdefault(col, []).append(v)
    if locus is not None:
        for vs in witnesses.values():
            add_to_locus(locus, tuple(vs))
    return out


def rref_sparse(rows: list, column_order: list, locus: list = None) -> tuple:
    """Reduced row echelon form of sparse rows.

    rows are dicts {column_label: Laurent or RatFunc}; column_order fixes
    which label counts as leading (earlier = more significant).  Returns
    (reduced, pivot labels), with reduced rows monic in their pivot, fully
    inter-reduced, zero rows dropped, and ordered by pivot position.  The
    result is unique for a fixed column order.  Each pivot row is the
    earliest remaining row, in input order, that holds the pivot column,
    found through a column -> rows index, so a pivot is eliminated only
    from the rows that hold it.  With locus given, each pivot value is
    added to it as a one-value tuple before it is inverted: wherever
    every entry is defined and every such value nonzero, the same steps
    reduce the specialized rows, so the reduced form specializes (see
    jforge.specialize).
    """
    col_index = {c: i for i, c in enumerate(column_order)}
    rows_at = []  # the rows by their input position, updated in place
    for row in rows:
        cleaned = {c: v for c, v in row.items() if not v.is_zero()}
        if cleaned:
            unknown = set(cleaned) - set(col_index)
            if unknown:
                raise DimensionMismatch(f"labels outside column order: {sorted(map(str, unknown))[:3]}")
            rows_at.append(cleaned)
    # column -> the positions of the rows, live or reduced, that hold it
    holders = {}
    for n, row in enumerate(rows_at):
        for c in row:
            holders.setdefault(c, set()).add(n)
    live = set(range(len(rows_at)))
    pivot_rows = []
    pivot_cols = []
    for col in column_order:
        # the earliest live row that holds col, as a scan would find it
        hit = min((n for n in holders.get(col, ()) if n in live), default=None)
        if hit is None:
            continue
        live.discard(hit)
        row = rows_at[hit]
        if locus is not None:
            add_to_locus(locus, (row[col],))
        inv = row[col].inverse()
        if inv is not L_ONE:
            row = rows_at[hit] = {c: v * inv for c, v in row.items()}
        for n in sorted(holders[col] - {hit}):
            new = dict(rows_at[n])
            add_terms(new, row.items(), -new[col])
            for c in row:
                if c in new:
                    holders.setdefault(c, set()).add(n)
                else:
                    holders[c].discard(n)
            rows_at[n] = new
        pivot_rows.append(hit)
        pivot_cols.append(col)
        if not live:
            break
    return [rows_at[n] for n in pivot_rows], pivot_cols
