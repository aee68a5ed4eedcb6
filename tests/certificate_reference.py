"""Certificates for outputs of the exact linear algebra, used by the tests alone.

A certificate checks an output by products and determinants, without
redoing the computation that gave it (McConnell, Mehlhorn, Naeher and
Schweitzer, "Certifying algorithms", Computer Science Review 5, 2011).
Determinants are taken over the rationals and the product is the dense
one of ``tests/matrix_reference.py``, so no check runs a
``kummerlat.matrix`` routine; only ``Matrix`` comes from the package.
"""

from __future__ import annotations

from math import prod

from kummerlat.matrix import Matrix
from matrix_reference import dense_product, det_fraction


def check_smith(gram: Matrix, d: Matrix, v: Matrix) -> list[str]:
    """The checks that (D, V) fails as a Smith form of the nonsingular square ``gram``.

    An empty list certifies it.  D must be diagonal of G's shape with
    positive entries d_j; then four checks:

    * det V = +-1;
    * d_j | d_(j+1);
    * prod d_j = |det G|;
    * column j of G V is divisible by d_j.

    By the last, W = G V D^-1 is integral, and det W = det G det V / prod d_j
    = +-1, so W is unimodular.  Then W^-1 G V = D with W^-1 and V
    unimodular and d_j | d_(j+1), so D is the Smith form of G, unique as the
    invariant factors are.  No row transform U is read and no inverse is
    taken.
    """
    n = gram.rows
    if not gram.shape == d.shape == v.shape == (n, n):
        return ["shapes"]
    diagonal = [d.data[j][j] for j in range(n)]
    if any(d.data[i][j] for i in range(n) for j in range(n) if i != j) or min(diagonal, default=1) < 1:
        return ["D diagonal and positive"]
    checks = {
        "det V = +-1": abs(det_fraction(v.data)) == 1,
        "d_j | d_(j+1)": all(y % x == 0 for x, y in zip(diagonal, diagonal[1:])),
        "prod d_j = |det G|": prod(diagonal) == abs(det_fraction(gram.data)),
        "d_j | column j of G V": all(x % dj == 0 for row in dense_product(gram, v).data
                                     for x, dj in zip(row, diagonal)),
    }
    return [name for name, ok in checks.items() if not ok]
