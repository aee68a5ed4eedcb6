"""Reference path for the isometry layer's linear algebra, used by the tests alone.

Kernels come from a Smith form with its column transform V (the columns
of V at zero invariant factors span the kernel), Hermite reduced by a
second pass, and overlattice coordinates come from a rational
Gauss-Jordan inverse.  Neither reads its result off the Hermite form of
a stacked matrix ([m^T | I], [B | phi B]), as
``kummerlat.matrix.integer_kernel`` and
``kummerlat.isometries.transport_isometry`` do.
"""

from __future__ import annotations

from kummerlat.matrix import (
    Matrix,
    column_hermite_basis,
    exact_inverse,
    smith_normal_form,
    zeros,
)


def smith_kernel(m: Matrix) -> Matrix:
    """Hermite basis of ker(m), as columns, read off a Smith form U m V = D."""
    _, d, v = smith_normal_form(m)
    kernel_cols = [
        v.col(j)
        for j in range(m.cols)
        if j >= min(m.rows, m.cols) or d.data[j][j] == 0
    ]
    if not kernel_cols:
        return zeros(m.cols, 0)
    return column_hermite_basis(Matrix(tuple(zip(*kernel_cols)), cols=len(kernel_cols)))


def rational_transport(basis: Matrix, phi: Matrix) -> Matrix:
    """basis^-1 phi basis over the rationals; it must be integral."""
    moved = exact_inverse(basis) @ phi @ basis
    if not moved.is_integral:
        raise ValueError("isometry does not preserve the overlattice")
    return moved
