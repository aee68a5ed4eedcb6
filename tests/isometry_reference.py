"""Reference path for the isometry layer's linear algebra, used by the tests alone.

Kernels come from the Smith form of ``tests/matrix_reference.py`` with
its column transform V (the columns of V at zero invariant factors span
the kernel), not from the ``kummerlat.matrix`` routine it is used to
check, Hermite reduced by a second pass, and overlattice coordinates
come from a rational
Gauss-Jordan inverse on lists of Fractions (``tests/matrix_reference.py``).
Neither reads its result off the Hermite form of a stacked matrix
([m^T | I], [B | phi B]), as ``kummerlat.matrix.integer_kernel`` and
``kummerlat.isometries.transport_isometry`` do.  Conjugation by a basis
change P takes the matrix route: an exact solve of P X = I and the
products P^T G P and P^-1 phi P, where ``kummerlat.pool`` applies the
elementary steps of P one at a time.  ``random_unimodular`` builds such a
P from the pool's own step draws; many tests take random unimodular
inputs from it.
"""

from __future__ import annotations

import random

from kummerlat.isometries import LatticeIsometry
from kummerlat.lattices import Lattice
from kummerlat.matrix import (
    Matrix,
    column_hermite_basis,
    identity,
    solve,
    zeros,
)
from kummerlat.pool import _unimodular_steps
from matrix_reference import fraction_inverse, fraction_product, integral_matrix, smith_normal_form


def smith_kernel(m: Matrix) -> Matrix:
    """Hermite basis of ker(m), as columns, read off the reference Smith form U m V = D."""
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


def conjugate_isometry(iso: LatticeIsometry, p_matrix: Matrix) -> LatticeIsometry:
    """Change of basis x = P x': the Gram becomes P^T G P, phi becomes P^-1 phi P.

    An integer matrix P is unimodular exactly when P X = I has an integer
    solution, so one solve both checks P and inverts it.  The conjugate is
    then valid by construction and is not checked again: P^T G P is
    symmetric and even, with det G as det P = +-1, and P^-1 phi P preserves
    it, is not 1 and has order p, because ``iso`` has these properties.
    """
    try:
        p_inverse = solve(p_matrix, identity(p_matrix.rows))
    except ValueError:
        raise ValueError("basis change must be unimodular") from None
    new_gram = p_matrix.transpose() @ (iso.lattice.gram @ p_matrix)
    new_phi = p_inverse @ (iso.matrix @ p_matrix)
    lattice = Lattice._trusted(new_gram, iso.lattice.name, iso.lattice.det)
    return LatticeIsometry._trusted(lattice, new_phi, iso.order)


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> Matrix:
    """Product of random elementary transvections and signed swaps."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j, c in _unimodular_steps(rng, n, steps):
        if kind == 0:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return Matrix._of_ints(tuple(map(tuple, rows)), n)
