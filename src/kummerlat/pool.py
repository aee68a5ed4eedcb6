"""Constructed witnesses for the prime order isometry property suites.

The pool is built, not searched.  ``_ROWS`` states each base entry as one
row (name, pieces, phi, glue, p), and ``base_pool`` builds every row the
same way: the direct sum of the pieces, phi on it, the overlattice of the
glue with phi transported to it, and the validating ``LatticeIsometry``.
Seeded unimodular conjugates extend the pool to any requested size
without changing the invariants.  A conjugate applies its random
elementary row steps straight to the Gram matrix and phi, one row and one
column operation each, so no basis change P is built, inverted or
multiplied.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache

from .isometries import LatticeIsometry, overlattice_with_basis, transport_isometry
from .lattices import Lattice, cartan_a, direct_sum, make_standard
from .matrix import Matrix, _Frozen, block_diag, identity


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


# One row per base entry: (name, pieces, phi, glue, p).  The lattice is the
# direct sum of the pieces, each a ``make_standard`` name or "An" / "An(-1)".
# ``phi`` is "shift", the cyclic permutation of equal pieces, or one block
# per piece: "C" (the rotation of A_n), "C2" (its square), "1" or "-1".  A
# glue codeword (k_1, ...) adds sum k_i g_i to the lattice, where g_i is the
# ``a_n_glue`` of piece i (Nikulin 1980, Prop. 1.4.1), and the overlattice
# takes the entry's name.
_TETRACODE = ((1, 1, 1, 0), (0, 1, 2, 1))
_ROWS = (
    ("cyclic A2(-1)", ("A2(-1)",), ("C",), (), 3),
    ("cyclic A4(-1)", ("A4(-1)",), ("C",), (), 5),
    ("cyclic A6(-1)", ("A6(-1)",), ("C",), (), 7),
    ("cyclic A22(-1)", ("A22(-1)",), ("C",), (), 23),
    ("-id on U", ("U",), ("-1",), (), 2),
    ("-id on E8(-1)", ("E8(-1)",), ("-1",), (), 2),
    ("swap U+U", ("U",) * 2, "shift", (), 2),
    ("swap H5+H5", ("H5",) * 2, "shift", (), 2),
    ("shift3 U^3", ("U",) * 3, "shift", (), 3),
    ("shift3 <-2>^3", ("<-2>",) * 3, "shift", (), 3),
    ("shift5 <-2>^5", ("<-2>",) * 5, "shift", (), 5),
    ("shift3 H5^3", ("H5",) * 3, "shift", (), 3),
    ("id+C5 on U+A4(-1)", ("U", "A4(-1)"), ("1", "C"), (), 5),
    ("glued id+C5 (A4(-1)^2)", ("A4(-1)",) * 2, ("1", "C"), ((1, 2),), 5),
    ("glued C5+C5 (A4(-1)^2)", ("A4(-1)",) * 2, ("C", "C"), ((1, 2),), 5),
    ("glued C5+C5^2 (A4(-1)^2)", ("A4(-1)",) * 2, ("C", "C2"), ((1, 2),), 5),
    ("glued C3+id (A2+A2(-1))", ("A2", "A2(-1)"), ("C", "1"), ((1, 1),), 3),
    ("glued C5+id (A4+A4(-1))", ("A4", "A4(-1)"), ("C", "1"), ((1, 1),), 5),
    ("glued C5+C5 (A4+A4(-1))", ("A4", "A4(-1)"), ("C", "C"), ((1, 1),), 5),
    ("glued C7+id (A6+A6(-1))", ("A6", "A6(-1)"), ("C", "1"), ((1, 1),), 7),
    # E8(-1) as the tetracode gluing of A2(-1)^4; the diagonal rotation has S = E8(-1)
    ("glued C3^4 (E8(-1) from A2(-1)^4)", ("A2(-1)",) * 4, ("C",) * 4, _TETRACODE, 3),
    ("glued C3+C3+id+id (A2(-1)^4 tetra)", ("A2(-1)",) * 4, ("C", "C", "1", "1"), _TETRACODE, 3),
    ("glued C23+id (A22+A22(-1))", ("A22", "A22(-1)"), ("C", "1"), ((1, 1),), 23),
)

_A_N = re.compile(r"^A(\d+)(\(-1\))?$")


@lru_cache(maxsize=len({piece for row in _ROWS for piece in row[1]}))
def _piece(name: str) -> Lattice:
    """A row's piece, built and validated once per process."""
    m = _A_N.match(name)
    if not m:
        return make_standard(name)
    gram = cartan_a(int(m.group(1)))
    return Lattice(-gram if m.group(2) else gram, name)


def _block(word: str, n: int) -> Matrix:
    if word == "1":
        return identity(n)
    if word == "-1":
        return -identity(n)
    c = cyclic_rotation(n)
    return c @ c if word == "C2" else c


def base_pool() -> list[PoolEntry]:
    entries = []
    for name, piece_names, phi_words, glue, p in _ROWS:
        pieces = [_piece(x) for x in piece_names]
        lattice = direct_sum(*pieces)
        if phi_words == "shift":
            phi = block_permutation(pieces[0].rank, len(pieces))
        else:
            phi = block_diag(*(_block(w, x.rank) for w, x in zip(phi_words, pieces)))
        if glue:
            vectors = [[k * g for k, x in zip(word, pieces) for g in a_n_glue(x.rank)]
                       for word in glue]
            over, basis = overlattice_with_basis(lattice, vectors)
            phi = transport_isometry(basis, phi)
            lattice = Lattice._trusted(over.gram, name, over.det)
        entries.append(PoolEntry(name, LatticeIsometry(lattice, phi, p)))
    return entries


def _unimodular_steps(rng: random.Random, n: int, steps: int) -> list[tuple[int, int, int, int]]:
    """``steps`` random draws of elementary row steps (kind, i, j, c) on n rows.

    Kind 0 adds c times row j to row i, kind 1 swaps rows i and j, kind 2
    negates row i.  A draw of kind 0 or 1 with i == j gives no step.
    """
    out = []
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            out.append((0, i, j, rng.choice((-2, -1, 1, 2))))
        elif kind == 2 or i != j:
            out.append((kind, i, j, 0))
    return out


def _conjugate(iso: LatticeIsometry, steps: list[tuple[int, int, int, int]]) -> LatticeIsometry:
    """``iso`` in the basis x = P x', P the product of ``steps`` applied to identity rows.

    P = E_s ... E_1, so P^T G P and P^-1 phi P come from G <- E^T G E and
    phi <- E^-1 phi E for each step E in reverse order, each a row and a
    column operation.  Integer elementary steps are unimodular, so the
    conjugate is valid by construction and is not checked again: it is
    symmetric and even with the same det G, and its phi preserves it, is
    not 1 and has order p, because ``iso`` has these properties.
    """
    g = [list(r) for r in iso.lattice.gram.data]
    phi = [list(r) for r in iso.matrix.data]
    for kind, i, j, c in reversed(steps):
        if kind == 0:
            g[j] = [x + c * y for x, y in zip(g[j], g[i])]
            phi[i] = [x - c * y for x, y in zip(phi[i], phi[j])]
            for row in g:
                row[j] += c * row[i]
            for row in phi:
                row[j] += c * row[i]
        elif kind == 1:
            for m in (g, phi):
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
        else:
            for m in (g, phi):
                m[i] = [-x for x in m[i]]
                for row in m:
                    row[i] = -row[i]
    n = len(g)
    gram = Matrix._of_ints(tuple(map(tuple, g)), n)
    lattice = Lattice._trusted(gram, iso.lattice.name, iso.lattice.det)
    return LatticeIsometry._trusted(lattice, Matrix._of_ints(tuple(map(tuple, phi)), n), iso.order)


# Only base entries up to this rank are conjugated to extend the pool; the
# rank 22 rotation of A22(-1) and its rank 44 gluing are not.
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
        steps = _unimodular_steps(rng, src.isometry.lattice.rank, 12)
        entries.append(PoolEntry(f"{src.name} (conjugate {i})", _conjugate(src.isometry, steps)))
        i += 1
    return entries
