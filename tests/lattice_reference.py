"""Rational references for ``kummerlat.lattices``, used by the tests alone.

``signature`` is the symmetric block elimination on ``Fraction`` entries,
with exact Schur complements and hyperbolic 2x2 pivots where the library
takes fraction-free (Bareiss) steps and a congruence.  ``p_primary_part``
restricts a finite quadratic form to its p-primary component on
``Fraction`` values, generator by generator, without scaling to integers.
The library must give identical outputs.  ``fqf_direct_sum`` builds the
orthogonal sum of two finite quadratic forms for the isomorphism tests,
and ``ambient_lattice`` the rank 23 lattice U^3 + E8(-1)^2 + <-2> that
the order five classification counts ranks in.  ``sparse_grams`` gives
the large sparse Gram matrices on which the determinant and the
signature are checked against these references at scale.
"""

from __future__ import annotations

import random
from fractions import Fraction

from kummerlat.lattices import (
    FiniteQuadraticForm,
    Lattice,
    cartan_a,
    direct_sum,
    fqf_from_generators,
    make_standard,
)
from kummerlat.matrix import Matrix, block_diag, factorize


def signature(lat: Lattice) -> tuple[int, int]:
    """Exact inertia (n_plus, n_minus): 1x1 pivots where the diagonal allows, else 2x2 blocks."""
    n = lat.rank
    a = [[Fraction(x) for x in row] for row in lat.gram.data]
    active = list(range(n))
    plus = minus = 0
    while active:
        d = next((i for i in active if a[i][i] != 0), None)
        if d is not None:
            if a[d][d] > 0:
                plus += 1
            else:
                minus += 1
            inv = 1 / a[d][d]
            active.remove(d)
            coeff = {k: a[k][d] * inv for k in active if a[k][d]}
            for k, f in coeff.items():
                for l in active:
                    if a[d][l]:
                        a[k][l] -= f * a[d][l]
            continue
        pair = None
        for idx, i in enumerate(active):
            for j in active[idx + 1 :]:
                if a[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        b = a[i][j]
        plus += 1
        minus += 1
        active.remove(i)
        active.remove(j)
        rows_i = {k: a[k][i] for k in active if a[k][i]}
        rows_j = {k: a[k][j] for k in active if a[k][j]}
        for k in active:
            ki = rows_i.get(k, 0)
            kj = rows_j.get(k, 0)
            if ki or kj:
                for l in active:
                    il = a[i][l]
                    jl = a[j][l]
                    if il or jl:
                        a[k][l] -= (ki * jl + kj * il) / b
    return (plus, minus)


def p_primary_part(form: FiniteQuadraticForm, p: int) -> FiniteQuadraticForm:
    """Restriction of the form to the p-primary component of the group."""
    idx = [i for i, o in enumerate(form.orders) if o % p == 0]
    vals = [factorize(form.orders[i])[p] for i in idx]
    cof = [form.orders[i] // p ** v for i, v in zip(idx, vals)]
    order_key = sorted(range(len(idx)), key=lambda t: (p ** vals[t], idx[t]))
    idx = [idx[t] for t in order_key]
    vals = [vals[t] for t in order_key]
    cof = [cof[t] for t in order_key]
    orders = [p ** v for v in vals]
    qs = [(cof[t] ** 2 * form.q_values[idx[t]]) % 2 for t in range(len(idx))]
    bm = [
        [(cof[s] * cof[t] * form.b_matrix[idx[s]][idx[t]]) % 1 for t in range(len(idx))]
        for s in range(len(idx))
    ]
    return fqf_from_generators(orders, qs, bm)


def fqf_direct_sum(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> FiniteQuadraticForm:
    ka, kb = len(a.orders), len(b.orders)
    orders = a.orders + b.orders
    qs = a.q_values + b.q_values
    bm = [[Fraction(0)] * (ka + kb) for _ in range(ka + kb)]
    for i in range(ka):
        for j in range(ka):
            bm[i][j] = a.b_matrix[i][j]
    for i in range(kb):
        for j in range(kb):
            bm[ka + i][ka + j] = b.b_matrix[i][j]
    return fqf_from_generators(orders, qs, bm)


def ambient_lattice() -> Lattice:
    """U^3 + E8(-1)^2 + <-2>, the second cohomology of a K3^[2]-type fourfold."""
    u = make_standard("U")
    e8m = make_standard("E8(-1)")
    return direct_sum(u, u, u, e8m, e8m, make_standard("<-2>"), name="U^3 + E8(-1)^2 + <-2>")


SPARSE_BLOCKS = ("U", "U(3)", "H5", "<-2>", "<4>", "A4(-1)", "A4(-5)", "E8(-1)")


def sparse_grams(seed: int) -> list[Matrix]:
    """Even nondegenerate Gram matrices of rank 200 to 256 whose elimination leaves most rows alone.

    A_256 and -A_200 (tridiagonal; the leading minors of -A_n alternate in
    sign), a diagonal of mixed signs, a block sum of rank at least 200
    whose hyperbolic planes, with zero diagonal, wait untouched for every
    other pivot before the congruence step takes them, and
    banded matrices of half-width 1, 2 and 3 whose even diagonal of random
    sign dominates each row, which makes them nondegenerate.
    """
    rng = random.Random(seed)
    grams = [cartan_a(256), -cartan_a(200),
             block_diag(*(Matrix([[rng.choice((2, -2, 4, -6))]]) for _ in range(256)))]
    blocks = [make_standard("U").gram, make_standard("U(3)").gram]
    while sum(m.rows for m in blocks) < 200:
        if rng.random() < 0.3:
            blocks.append(cartan_a(rng.randint(1, 12)).scale(rng.choice((1, -1))))
        else:
            blocks.append(make_standard(rng.choice(SPARSE_BLOCKS)).gram)
    grams.append(block_diag(*blocks))
    for n, width in ((256, 1), (230, 2), (200, 3)):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, min(n, i + width + 1)):
                g[i][j] = g[j][i] = rng.choice((0, -2, -1, 1, 2))
            # the at most 2 width off-diagonal entries of a row sum to at most 4 width
            g[i][i] = rng.choice((1, -1)) * (4 * width + 2)
        grams.append(Matrix(g))
    return grams
