"""Reference kernels for ``kummerlat.matrix``, used by the tests alone.

They are the dense versions of the library's sparse integer kernels: the
product takes a dot product for every entry, zeros included; Hermite
elimination combines every pair of rows by the 2x2 xgcd transform, even
when the pivot divides the entry it clears; the Smith form scans the
whole remaining block for the smallest pivot and for divisibility at
every pivot, 1 included.  The library must give identical outputs.

The rational references work on lists of rows of ints or ``Fraction``s,
since ``Matrix`` holds ints only: the determinant by Gaussian elimination,
the inverse by Gauss-Jordan elimination and the product, with
``integral_matrix`` to bring a rational result that must be integral back
to a ``Matrix``.  They cross-check the library's Bareiss determinant and
its Hermite-form ``solve``.  ``saturate_columns`` checks that a basis is
primitive, and ``apply`` multiplies a matrix by one column vector.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from kummerlat.matrix import Matrix, _xgcd, zeros


def apply(a: Matrix, vec) -> tuple:
    """a times the column vector ``vec``, as a tuple: the product with one column."""
    if len(vec) != a.cols:
        raise ValueError("vector length mismatch")
    return tuple(row[0] for row in (a @ Matrix([[x] for x in vec], cols=1)).data)


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with one dot product per entry."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    bt = tuple(zip(*b.data)) if b.rows else tuple(() for _ in range(b.cols))
    return Matrix(
        [[sum(map(mul, row, col)) for col in bt] for row in a.data],
        cols=b.cols,
    )


def det_fraction(rows) -> Fraction:
    """Determinant of the square matrix with the given rows, over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def fraction_product(a, b) -> list[list[Fraction]]:
    """The product of the matrices with rows ``a`` and ``b``, over the rationals."""
    bt = list(zip(*b))
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def fraction_inverse(rows) -> list[list[Fraction]]:
    """Inverse of the square matrix with the given rows, by Gauss-Jordan elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def integral_matrix(rows, message: str = "matrix is not integral") -> Matrix:
    """The Matrix of rational rows whose entries must all be integers, else ValueError(message)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if any(x.denominator != 1 for row in rows for x in row):
        raise ValueError(message)
    return Matrix([[int(x) for x in row] for row in rows])


def xgcd_hermite_rows(a: list, cols: int) -> int:
    """Bring the integer rows ``a`` to row Hermite form in place; return the rank.

    The nonzero rows come first; the rest of ``a`` is zero afterwards.
    """
    rows = len(a)
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                if piv is None:
                    piv = i
                else:
                    g, x, y = _xgcd(a[piv][c], a[i][c])
                    p_, q_ = a[piv][c] // g, a[i][c] // g
                    rp, ri = a[piv], a[i]
                    a[piv] = [x * s + y * t_ for s, t_ in zip(rp, ri)]
                    a[i] = [-q_ * s + p_ * t_ for s, t_ in zip(rp, ri)]
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def row_hermite(m: Matrix) -> Matrix:
    """``kummerlat.matrix.row_hermite`` on the xgcd-only elimination."""
    a = [list(r) for r in m.data]
    rank = xgcd_hermite_rows(a, m.cols)
    return Matrix(a[:rank], cols=m.cols)


def integer_kernel(m: Matrix) -> Matrix:
    """``kummerlat.matrix.integer_kernel`` on the xgcd-only elimination."""
    rows, cols = m.rows, m.cols
    left = zip(*m.data) if rows else [()] * cols
    a = [list(col) + [int(i == j) for j in range(cols)] for i, col in enumerate(left)]
    xgcd_hermite_rows(a, rows + cols)
    kernel = [row[rows:] for row in a if not any(row[:rows])]
    if not kernel:
        return zeros(cols, 0)
    return Matrix(tuple(zip(*kernel)), cols=len(kernel))


def smith_normal_form(m: Matrix):
    """Return (U, D, V) with U @ m @ V = D.

    U and V are unimodular, D is diagonal with nonnegative entries satisfying
    d_i | d_{i+1}.  Pivot selection: smallest absolute value among nonzero
    entries of the remaining block, ties broken by lowest row, then column.
    """
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        if c:
            asrc, usrc = a[src], u[src]
            a[dst] = [x + c * y for x, y in zip(a[dst], asrc)]
            u[dst] = [x + c * y for x, y in zip(u[dst], usrc)]

    def add_col(dst, src, c):
        if c:
            for r in a:
                r[dst] += c * r[src]
            for r in v:
                r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = find_pivot(t)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            pivot = a[t][t]
            moved = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // pivot))
                    if a[i][t]:
                        swap_rows(t, i)
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // pivot))
                    if a[t][j]:
                        swap_cols(t, j)
                    moved = True
                    break
            if moved:
                continue
            offender = None
            for i in range(t + 1, rows):
                if any(a[i][j] % pivot for j in range(t + 1, cols)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    return Matrix(u), Matrix(a), Matrix(v)


def saturate_columns(b: Matrix) -> Matrix:
    """Canonical basis of the saturation of the column span of ``b``.

    The saturation is the largest sublattice of Z^rows with the same span
    over Q; it is computed as a double integer kernel, so the output basis
    is primitive.
    """
    complement = integer_kernel(b.transpose())
    return integer_kernel(complement.transpose())
