"""Prime order isometries of even lattices and their numeric invariants.

For an isometry phi of prime order p of L, the invariant lattice T is the
kernel of (phi - 1), the coinvariant lattice S its orthogonal complement
(the kernel of the pairings T^T G), and (m, a) records rank(S) = (p-1) m
and [L : T + S] = p^a.  S is cross-checked as ker Phi_p(phi) by
Phi_p(phi) S = 0, which holds exactly when the two agree: L and T are
nondegenerate, so Q^n = T_Q + S_Q, and Phi_p(phi) is p on T, so its kernel
meets T_Q in 0 and holds S_Q only if it is S_Q; both are saturated, so
their canonical Hermite bases are equal, whether or not phi is an
isometry with phi^p = 1.  Phi_p(phi) is never built: Horner's rule
applies phi p - 1 times to the rows of S packed into one integer each
(Kronecker substitution), in chunks of as many steps as a bound on the
entries keeps within a fixed slot width; after a chunk that does not
finish, the width is derived again from the entries reached.  The same
check decides phi^p = 1 when an isometry is built, since
phi^p - 1 = Phi_p(phi) (phi - 1).

No Smith form is taken.  The pairings x -> T^T G x have kernel S and map
T onto (T^T G T) Z^k, so [L : T + S] is |det T| over the index of the
image of L, which the echelon pivots of the kernel giving S multiply to.
The quotient L/(T + S) of order p^a is p-elementary exactly when [T | S]
has rank n - a over F_p.

Glued overlattices, on which the pool realizes nonzero a, are built in
integers too: the overlattice basis is kept as the integer Hermite basis
den * B, with den the common denominator of the glue, and an isometry is
moved onto it by one integer solve of (den B) X = phi (den B).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import lshift

from .lattices import Lattice, Sublattice
from .matrix import (
    Matrix,
    _Frozen,
    _is_int,
    column_hermite_basis,
    exact_det,
    hstack,
    identity,
    integer_kernel,
    is_prime,
    solve,
)


class LatticeIsometry(_Frozen):
    """An isometry of prime order p, validated on construction."""

    __slots__ = ("lattice", "matrix", "order")

    def __init__(self, lattice: Lattice, matrix: Matrix, order: int):
        if not _is_int(order):
            raise ValueError(f"order p must be an integer, got {order!r}")
        phi, g = matrix, lattice.gram
        n = lattice.rank
        if phi.shape != (n, n):
            raise ValueError("isometry matrix size does not match the lattice rank")
        # phi != 1 of prime order p has Phi_p | charpoly(phi), of degree p - 1
        if order - 1 > n:
            raise ValueError(
                f"order {order} exceeds rank + 1 = {n + 1}, "
                "the bound for a prime order isometry != identity"
            )
        if not is_prime(order):
            raise ValueError("order must be prime, matrix != identity")
        if phi.transpose() @ g @ phi != g:
            raise ValueError("matrix is not an isometry: it does not preserve the Gram matrix")
        one = identity(n)
        if phi == one:
            raise ValueError("order must be prime, matrix != identity")
        # phi^p - 1 = Phi_p(phi) (phi - 1), so the packed Horner check decides phi^p = 1
        if not _annihilates(phi, order, phi - one):
            raise ValueError(f"matrix does not have order {order}")
        super().__init__(lattice, matrix, order)


class IsometryInvariants(_Frozen):
    __slots__ = ("invariant", "coinvariant", "m", "a", "disc_s", "index")


# The widest slot, in bits, that a chunk of Horner steps in ``_annihilates``
# may need by its bound.  At 160 every cross-check and order check of the
# 220-entry pool runs in one chunk (the widest, of glued C23+id, needs 136
# bits; at 128 it takes two, and 0.4-0.8 ms more).  On dense phi the bound
# outgrows the entries by about log2 B bits a step, so there wider chunks
# cost more: on a conjugated rotation of A_60, whose entries stay at 7-10
# bits, the two checks took 1.2x as long at 160 as at 128, and 2.3x at 512.
_MAX_SLOT_BITS = 160


def _pack(rows, width: int) -> list[int]:
    """Each row (x_0, x_1, ...) as the one integer sum of x_j 2^(width j)."""
    return [sum(map(lshift, row, range(0, width * len(row), width))) for row in rows]


def _unpack(packed: list[int], k: int, width: int) -> list[list[int]]:
    """The rows of k entries that ``_pack`` packed, each |x_j| < 2^(width - 1), width = 0 mod 8.

    Adding 2^(width - 1) to every slot makes every slot nonnegative, so the
    bytes of the sum hold the slots, with no carry between them.
    """
    size, half = width // 8, 1 << (width - 1)
    bias = half * (((1 << (width * k)) - 1) // ((1 << width) - 1))
    rows = []
    for value in packed:
        raw = (value + bias).to_bytes(size * k, "little")
        rows.append([int.from_bytes(raw[i:i + size], "little") - half
                     for i in range(0, size * k, size)])
    return rows


def _annihilates(phi: Matrix, p: int, s: Matrix) -> bool:
    """Whether (1 + phi + ... + phi^(p-1)) s is zero, decided exactly.

    Horner, acc <- phi acc + s for p - 1 steps from acc = s, runs on the
    rows of s packed into one integer each (``_pack``): packing is linear,
    so a step costs one multiply-add per nonzero entry of phi, and the zero
    test needs no unpacking.  The test is sound when every entry is below
    2^(width - 1) in absolute value, since a row then packs to 0 only if
    all its entries are 0.  With B the largest row sum of |phi| (at least
    1), r steps from entries at most M stay at most (r + 1) B^r M, which
    sets the width.  A chunk takes as many steps as keep that bound below
    2^_MAX_SLOT_BITS, and at least one, so sparse phi and small p run in
    one chunk.  The bound overshoots on dense phi, so after a chunk that
    does not finish, the rows are unpacked once and M is taken again as the
    largest entry reached.
    """
    terms = [[(l, v) for l, v in enumerate(row) if v] for row in phi.data]
    b = max([1] + [sum(abs(v) for _, v in row) for row in terms])
    m_s = max([1] + [abs(x) for row in s.data for x in row])
    entries, largest, left = s.data, m_s, p - 1
    while True:
        # the most steps, and at least one, whose bound stays below the cap; grown = B^steps M
        steps, grown = 0, largest
        while steps < left and (
                not steps or ((steps + 2) * grown * b).bit_length() < _MAX_SLOT_BITS):
            steps, grown = steps + 1, grown * b
        width = ((steps + 1) * grown).bit_length() // 8 * 8 + 8
        base = _pack(s.data, width)
        acc = base if entries is s.data else _pack(entries, width)
        for _ in range(steps):
            acc = [sum([v * acc[l] for l, v in row], x) for row, x in zip(terms, base)]
        left -= steps
        if not left:
            return not any(acc)
        entries = _unpack(acc, s.cols, width)
        largest = max([m_s] + [abs(x) for row in entries for x in row])


def _split(iso: LatticeIsometry) -> tuple[Sublattice, Sublattice, int, int]:
    """(T, S, det T, [Z^k : T^T G L]) of ``iso`` by two kernels, one determinant and one check.

    The last entry, for k = rank T, is the index of the image of L under the
    pairings T^T G, read off the echelon pivots of the kernel that gives S.
    """
    p, lattice = iso.order, iso.lattice
    t = integer_kernel(iso.matrix - identity(lattice.rank))
    pairings = t.transpose() @ lattice.gram
    det_t = exact_det(pairings @ t) if t.cols else 1
    if det_t == 0:
        raise ValueError("form degenerates on the invariant lattice; input is not an isometry")
    s, image_index = integer_kernel(pairings, with_index=True)
    if not _annihilates(iso.matrix, p, s):
        raise AssertionError(
            "coinvariant mismatch: orthogonal complement differs from ker Phi_p(phi)"
        )
    if s.cols % (p - 1):
        raise AssertionError("coinvariant rank is not divisible by p - 1")
    return Sublattice._trusted(lattice, t), Sublattice._trusted(lattice, s), det_t, image_index


def _rank_mod(rows, p: int) -> int:
    """Rank over F_p of the integer matrix with the given rows, by Gaussian elimination mod p."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inverse = pow(a[rank][c], -1, p)
        pivot_row = [x * inverse % p for x in a[rank]]
        for i in range(rank + 1, len(a)):
            e = a[i][c]
            if e:
                a[i] = [(x - e * y) % p for x, y in zip(a[i], pivot_row)]
        rank += 1
    return rank


def compute_invariants(iso: LatticeIsometry) -> IsometryInvariants:
    """Compute (T, S, m, a, disc S) for a prime order isometry.

    Two kernels give T and S, and ``_annihilates`` cross-checks S (``_split``).
    The index comes from the pairing map x -> T^T G x, with kernel S: it
    maps L onto a lattice of index h in Z^k, the product of the echelon
    pivots of the second kernel, and T onto (T^T G T) Z^k, of index
    |det T|.  So [L : T + S] = |det T| / h, one exact division, a power
    p^a.  The quotient is p-elementary exactly when n - a of the invariant
    factors of [T | S] are prime to p, that is when [T | S] has rank n - a
    over F_p; a quotient of order 1 or p always is, so only a >= 2 takes
    the rank.  T is orthogonal to S, so |det T| |det S| = |det L| [L : T + S]^2
    gives disc S by one more division, with det T from the degeneracy check.
    """
    p, n = iso.order, iso.lattice.rank
    t, s, det_t, image_index = _split(iso)
    if t.rank + s.rank != n:
        raise AssertionError("rank(T) + rank(S) != rank(L)")
    m = s.rank // (p - 1)
    index, rest = divmod(abs(det_t), image_index)
    if rest:
        raise AssertionError("[Z^k : T^T G L] does not divide |det T|")
    a, x = 0, index
    while x and x % p == 0:
        x //= p
        a += 1
    if x != 1:
        raise ValueError(f"index [L : T + S] = {index} is not a power of p = {p}")
    if a > 1 and _rank_mod(hstack(t.basis, s.basis).data, p) != n - a:
        raise ValueError("quotient L/(T + S) is not p-elementary")
    disc_s, rest = divmod(iso.lattice.disc * index * index, abs(det_t))
    if rest:
        raise AssertionError("|det T| does not divide |det L| [L : T + S]^2")
    return IsometryInvariants(t, s, m, a, disc_s, index)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def check_square_theorem(inv: IsometryInvariants, p: int) -> bool:
    """Whether p^m * disc(S) is a perfect square; defined for odd primes only."""
    if p == 2:
        raise ValueError("the square criterion requires prime order p != 2")
    return is_perfect_square(p ** inv.m * inv.disc_s)


def check_unimodular_corollary(inv: IsometryInvariants, p: int, lattice: Lattice) -> bool:
    """On a unimodular ambient lattice: disc(S) = p^a and a = m mod 2."""
    if p == 2:
        raise ValueError("the corollary requires prime order p != 2")
    if not lattice.is_unimodular:
        raise ValueError("ambient lattice is not unimodular")
    return inv.disc_s == p ** inv.a and (inv.a - inv.m) % 2 == 0


def overlattice_with_basis(pieces: Lattice, glue_vectors) -> tuple[Lattice, Matrix]:
    """Even integral overlattice generated by ``pieces`` and rational glue vectors.

    Returns the overlattice together with the integer matrix den * B, where
    den is the common denominator of the glue and the columns of B are the
    overlattice basis in the coordinates of ``pieces``.  den * B is the
    column Hermite basis of [den I | den v_1 ...], and the Gram matrix
    B^T G B is (den B)^T G (den B) divided by den^2; an entry that does not
    divide makes the Gram matrix non-integral, which is reported as an
    invalid overlattice.
    """
    n = pieces.rank
    if not glue_vectors:
        return pieces, identity(n)
    cols = [tuple(Fraction(x) for x in v) for v in glue_vectors]
    if any(len(v) != n for v in cols):
        raise ValueError("glue vector length does not match the lattice rank")
    den = lcm(*(x.denominator for v in cols for x in v))
    gen = [[den * int(i == j) for j in range(n)] + [int(v[i] * den) for v in cols] for i in range(n)]
    basis = column_hermite_basis(Matrix(gen, cols=n + len(cols)))
    if basis.cols != n:
        raise AssertionError("overlattice basis has wrong rank")
    den2 = den * den
    scaled_gram = (basis.transpose() @ pieces.gram @ basis).data
    try:
        if any(x % den2 for row in scaled_gram for x in row):
            raise ValueError("Gram matrix is not integral")
        lattice = Lattice(Matrix._of_ints(tuple(tuple(x // den2 for x in row) for row in scaled_gram), n))
    except ValueError as exc:
        raise ValueError(f"glue vectors do not define an even integral overlattice: {exc}")
    return lattice, basis


def transport_isometry(basis: Matrix, phi: Matrix) -> Matrix:
    """Rewrite an isometry in overlattice coordinates: X = B^-1 phi B.

    ``basis`` is the integer matrix den * B of ``overlattice_with_basis``;
    the scale cancels, so X solves (den B) X = phi (den B).  X is not
    integral exactly when the isometry does not preserve the overlattice.
    """
    return solve(basis, phi @ basis, "isometry does not preserve the overlattice")
