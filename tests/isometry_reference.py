"""Reference path for the isometry layer's linear algebra, used by the tests alone.

Kernels come from a Smith form with its column transform V (the columns
of V at zero invariant factors span the kernel), Hermite reduced by a
second pass, and overlattice coordinates come from a rational
Gauss-Jordan inverse on lists of Fractions (``tests/matrix_reference.py``).
Neither reads its result off the Hermite form of a stacked matrix
([m^T | I], [B | phi B]), as ``kummerlat.matrix.integer_kernel`` and
``kummerlat.isometries.transport_isometry`` do.
"""

from __future__ import annotations

from kummerlat.matrix import Matrix, column_hermite_basis, smith_normal_form, zeros
from matrix_reference import fraction_inverse, fraction_product, integral_matrix


def smith_kernel(m: Matrix) -> Matrix:
    """Hermite basis of ker(m), as columns, read off a Smith form U m V = D."""
    _, d, v = smith_normal_form(m)
    v_cols = v.transpose().data
    kernel_cols = [
        v_cols[j]
        for j in range(m.cols)
        if j >= min(m.rows, m.cols) or d.data[j][j] == 0
    ]
    if not kernel_cols:
        return zeros(m.cols, 0)
    return column_hermite_basis(Matrix(tuple(zip(*kernel_cols)), cols=len(kernel_cols)))


def rational_transport(basis, phi) -> Matrix:
    """basis^-1 phi basis over the rationals, for the rows of basis and phi; it must be integral."""
    moved = fraction_product(fraction_product(fraction_inverse(basis), phi), basis)
    return integral_matrix(moved, "isometry does not preserve the overlattice")
