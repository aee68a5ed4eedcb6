"""Constructed witnesses for the prime order isometry property suites.

The pool is built, not searched: cyclotomic rotations of A_{p-1}(-1),
sign flips, block permutations, and glued overlattice variants that realize
nonzero glue exponents a.  Random unimodular conjugations extend the pool
to any requested size without changing the invariants.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .isometries import (
    LatticeIsometry,
    conjugate_isometry,
    overlattice_with_basis,
    transport_isometry,
)
from .lattices import Lattice, cartan_a, direct_sum, make_standard
from .matrix import Matrix, _Frozen, _set, block_diag, identity


def cyclic_rotation(n: int) -> Matrix:
    """Order n+1 isometry of A_n: e1 -> e2 -> ... -> en -> -(e1+...+en)."""
    cols = [[int(i == j + 1) for i in range(n)] for j in range(n - 1)]
    cols.append([-1] * n)
    return Matrix([[cols[j][i] for j in range(n)] for i in range(n)], cols=n)


def a_n_glue(n: int) -> tuple[Fraction, ...]:
    """Generator of the discriminant group of A_n: (1, 2, ..., n)/(n+1)."""
    return tuple(Fraction(i, n + 1) for i in range(1, n + 1))


def block_permutation(block_rank: int, cycle_len: int) -> Matrix:
    """Cyclic permutation of ``cycle_len`` blocks of the given rank."""
    n = block_rank * cycle_len
    rows = []
    for i in range(n):
        block, off = divmod(i, block_rank)
        src = ((block - 1) % cycle_len) * block_rank + off
        rows.append([int(j == src) for j in range(n)])
    return Matrix(rows, cols=n)


class PoolEntry(_Frozen):
    __slots__ = ("name", "isometry")

    def __init__(self, name: str, isometry: LatticeIsometry):
        _set(self, "name", name)
        _set(self, "isometry", isometry)


def _glued(name, pieces, glues, phi_blocks, p) -> PoolEntry:
    over, basis = overlattice_with_basis(pieces, glues)
    phi = transport_isometry(basis, phi_blocks)
    return PoolEntry(name, LatticeIsometry(Lattice._trusted(over.gram, name, over.det), phi, p))


def base_pool() -> list[PoolEntry]:
    entries: list[PoolEntry] = []
    u = make_standard("U")
    h5 = make_standard("H5")
    m2 = make_standard("<-2>")
    a2 = Lattice(cartan_a(2), "A2")
    a2m = Lattice(-cartan_a(2), "A2(-1)")
    a4 = Lattice(cartan_a(4), "A4")
    a4m = make_standard("A4(-1)")
    a6 = Lattice(cartan_a(6), "A6")
    a6m = Lattice(-cartan_a(6), "A6(-1)")
    a22m = Lattice(-cartan_a(22), "A22(-1)")

    c3, c5, c7, c23 = (cyclic_rotation(k) for k in (2, 4, 6, 22))
    g2, g4, g6, g22 = (a_n_glue(k) for k in (2, 4, 6, 22))

    entries.append(PoolEntry("cyclic A2(-1)", LatticeIsometry(a2m, c3, 3)))
    entries.append(PoolEntry("cyclic A4(-1)", LatticeIsometry(a4m, c5, 5)))
    entries.append(PoolEntry("cyclic A6(-1)", LatticeIsometry(a6m, c7, 7)))
    entries.append(PoolEntry("cyclic A22(-1)", LatticeIsometry(a22m, c23, 23)))

    entries.append(PoolEntry("-id on U", LatticeIsometry(u, -identity(2), 2)))
    entries.append(
        PoolEntry("-id on E8(-1)", LatticeIsometry(make_standard("E8(-1)"), -identity(8), 2))
    )
    entries.append(
        PoolEntry("swap U+U", LatticeIsometry(direct_sum(u, u), block_permutation(2, 2), 2))
    )
    entries.append(
        PoolEntry("swap H5+H5", LatticeIsometry(direct_sum(h5, h5), block_permutation(2, 2), 2))
    )
    entries.append(
        PoolEntry(
            "shift3 U^3",
            LatticeIsometry(direct_sum(u, u, u), block_permutation(2, 3), 3),
        )
    )
    entries.append(
        PoolEntry(
            "shift3 <-2>^3",
            LatticeIsometry(direct_sum(m2, m2, m2), block_permutation(1, 3), 3),
        )
    )
    entries.append(
        PoolEntry(
            "shift5 <-2>^5",
            LatticeIsometry(direct_sum(*(m2,) * 5), block_permutation(1, 5), 5),
        )
    )
    entries.append(
        PoolEntry(
            "shift3 H5^3",
            LatticeIsometry(direct_sum(h5, h5, h5), block_permutation(2, 3), 3),
        )
    )
    entries.append(
        PoolEntry(
            "id+C5 on U+A4(-1)",
            LatticeIsometry(direct_sum(u, a4m), block_diag(identity(2), c5), 5),
        )
    )

    # glued variants: nonzero a on non-unimodular and unimodular ambients
    glue_a4 = [g4 + tuple(2 * x for x in g4)]
    pieces_a4 = direct_sum(a4m, a4m)
    entries.append(
        _glued("glued id+C5 (A4(-1)^2)", pieces_a4, glue_a4, block_diag(identity(4), c5), 5)
    )
    entries.append(_glued("glued C5+C5 (A4(-1)^2)", pieces_a4, glue_a4, block_diag(c5, c5), 5))
    entries.append(
        _glued(
            "glued C5+C5^2 (A4(-1)^2)",
            pieces_a4,
            glue_a4,
            block_diag(c5, c5 @ c5),
            5,
        )
    )

    entries.append(
        _glued(
            "glued C3+id (A2+A2(-1))",
            direct_sum(a2, a2m),
            [g2 + g2],
            block_diag(c3, identity(2)),
            3,
        )
    )
    entries.append(
        _glued(
            "glued C5+id (A4+A4(-1))",
            direct_sum(a4, a4m),
            [g4 + g4],
            block_diag(c5, identity(4)),
            5,
        )
    )
    entries.append(
        _glued(
            "glued C5+C5 (A4+A4(-1))",
            direct_sum(a4, a4m),
            [g4 + g4],
            block_diag(c5, c5),
            5,
        )
    )
    entries.append(
        _glued(
            "glued C7+id (A6+A6(-1))",
            direct_sum(a6, a6m),
            [g6 + g6],
            block_diag(c7, identity(6)),
            7,
        )
    )

    # E8(-1) as the tetracode gluing of A2(-1)^4; diagonal rotation has S = E8(-1)
    zero2 = (Fraction(0), Fraction(0))
    tetra_glues = [
        g2 + g2 + g2 + zero2,
        zero2 + g2 + tuple(2 * x for x in g2) + g2,
    ]
    entries.append(
        _glued(
            "glued C3^4 (E8(-1) from A2(-1)^4)",
            direct_sum(a2m, a2m, a2m, a2m),
            tetra_glues,
            block_diag(c3, c3, c3, c3),
            3,
        )
    )
    entries.append(
        _glued(
            "glued C3+C3+id+id (A2(-1)^4 tetra)",
            direct_sum(a2m, a2m, a2m, a2m),
            tetra_glues,
            block_diag(c3, c3, identity(2), identity(2)),
            3,
        )
    )
    entries.append(
        _glued(
            "glued C23+id (A22+A22(-1))",
            direct_sum(Lattice(cartan_a(22), "A22"), a22m),
            [g22 + g22],
            block_diag(c23, identity(22)),
            23,
        )
    )
    return entries


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> Matrix:
    """Product of random elementary transvections and signed swaps."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return Matrix._of_ints(tuple(map(tuple, rows)), n)


# Only base entries up to this rank are conjugated to extend the pool; the
# glued lattices of rank 22 and 44 are not.
MAX_CONJUGATED_RANK = 16


def extended_pool(seed: int = 20260808, count: int = 220):
    """The base pool plus seeded unimodular conjugates, at least ``count`` entries."""
    base = base_pool()
    rng = random.Random(seed)
    entries = list(base)
    small = [e for e in base if e.isometry.lattice.rank <= MAX_CONJUGATED_RANK]
    i = 0
    while len(entries) < count:
        src = small[i % len(small)]
        p_matrix = random_unimodular(rng, src.isometry.lattice.rank)
        entries.append(
            PoolEntry(f"{src.name} (conjugate {i})", conjugate_isometry(src.isometry, p_matrix))
        )
        i += 1
    return entries
