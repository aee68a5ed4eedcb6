"""Even integral lattices given by Gram matrices.

Provides the standard named lattices (U, E8(-1), A4(-1), H5, ...), direct
sums, exact signatures and discriminant groups, discriminant forms, and
isomorphism testing of finite quadratic forms on their p-primary parts.
Signatures add and D(L1 + L2) = D(L1) + D(L2) (Nikulin 1980, section
1.3), so both are read per connected block of the Gram matrix, once per
distinct block: its inertia by symmetric elimination over Z, its
discriminant form by one Smith form (D, V).  The discriminant group
pools the block invariant factors, and ``orthogonal_discriminant_form``
sums the block forms.
``discriminant_form`` keeps one whole-Gram Smith form, whose columns
present the generators that ``lattice info`` prints.  The
isomorphism test splits each form once into its p-parts and scales each
part by its own largest order p^K, then works on integers.
An odd p-part whose b is nondegenerate is decided by its Jordan
invariants: for each scale p^s, the rank of the constituent and the
Legendre symbol of its determinant (Wall, "Quadratic forms on finite
groups, and related topics", Topology 2, 1963; Nikulin, Math. USSR Izv.
14, 1980, section 1.8).  Every other part (each 2-part and each
degenerate odd part) gets an (order, q) census of both groups, then a
backtracking search for generator images with forward checking; there
each element carries its pairing row as one int of fixed-width slots,
left unreduced (a slot holds less than k * p^K * p^K), which is unpacked
only for the candidates of the search.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product
from math import gcd, lcm, prod
from operator import itemgetter

from .matrix import (
    Matrix,
    _Frozen,
    block_diag,
    exact_det,
    factorize,
    identity,
    integer_kernel,
    smith_normal_form,
    solve,
)

# The census and search of fqf_isomorphic enumerate every element of both
# groups, so the group order is capped; the cap is checked before any work,
# also for the odd p-parts that the Jordan invariants decide without it.
FQF_ORDER_CAP = 10000

# lattice_from_dict, the reader of ``lattice info`` and ``isometry check``,
# refuses a Gram matrix of more rows before any work.  The worst accepted
# sparse shape, 2 I of rank 256, takes about 1.1 s and 25 MB max RSS in
# ``lattice info``, nearly all in the whole-Gram Smith form of
# ``discriminant_form`` (A_256: 0.2 s; ``isometry check`` of -1 on either,
# 0.2 s), median of 5 runs of the command, Python 3.11 on a 2-core Xeon.
# Dense Gram matrices grow their entries and reach cost cliffs at lower
# ranks, which this bound does not address.
MAX_RANK = 256


class Lattice(_Frozen):
    """An even integral lattice with a nondegenerate symmetric Gram matrix.

    ``det``, the determinant of the Gram matrix, is computed once, by the
    nondegeneracy check of the public constructor.  The trusted path of
    every value class, ``Lattice._trusted(gram, name, det)``, takes a Gram
    matrix that is valid by construction together with its determinant, as
    ``direct_sum``, the pool's unimodular conjugates and renames make them,
    and checks nothing again.  Equality and hashing read ``gram`` and
    ``name``, never ``det``.
    """

    __slots__ = ("gram", "name", "det")
    _compare = ("gram", "name")

    def __init__(self, gram: Matrix, name: str | None = None):
        if not gram.is_square:
            raise ValueError("Gram matrix must be square")
        if not gram.is_symmetric:
            raise ValueError("Gram matrix must be symmetric")
        if any(gram.data[i][i] % 2 for i in range(gram.rows)):
            raise ValueError("lattice is not even: odd diagonal entry in Gram matrix")
        det = exact_det(gram)
        if det == 0:
            raise ValueError("Gram matrix is degenerate")
        super().__init__(gram, name, det)

    @property
    def rank(self) -> int:
        return self.gram.rows

    @property
    def disc(self) -> int:
        """Order of the discriminant group, |det(Gram)|."""
        return abs(self.det)

    @property
    def is_unimodular(self) -> bool:
        return self.disc == 1

    def __repr__(self):
        label = self.name or f"rank {self.rank} lattice"
        return f"Lattice({label}, det={self.det})"


_CARTAN_E8 = Matrix(
    [
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ]
)


def cartan_a(n: int) -> Matrix:
    """Cartan matrix of the root system A_n (positive definite, det n+1)."""
    return Matrix(
        [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    )


def hyperbolic_plane(scale: int = 1) -> Matrix:
    return Matrix([[0, scale], [scale, 0]])


_NAME_RE_U = re.compile(r"^U(?:\((-?\d+)\))?$")
_NAME_RE_RANK1 = re.compile(r"^<(-?\d+)>$")


def make_standard(name: str) -> Lattice:
    """Build a named standard lattice.

    Accepted names: "U", "U(k)", "E8(-1)", "A4(-1)", "A4(-5)", "A4*(-5)",
    "H5", and "<k>" for even nonzero k.  A lattice is immutable, so each
    name, stripped, is built and validated once and then shared.
    """
    return _standard(name.strip())


@lru_cache(maxsize=32)
def _standard(name: str) -> Lattice:
    m = _NAME_RE_U.match(name)
    if m:
        k = int(m.group(1)) if m.group(1) else 1
        if k == 0:
            raise ValueError("U(0) is degenerate")
        return Lattice(hyperbolic_plane(k), name)
    m = _NAME_RE_RANK1.match(name)
    if m:
        k = int(m.group(1))
        if k == 0 or k % 2:
            raise ValueError(f"rank one lattice <{k}> must have even nonzero square")
        return Lattice(Matrix([[k]]), name)
    if name == "E8(-1)":
        return Lattice(-_CARTAN_E8, name)
    if name == "A4(-1)":
        return Lattice(-cartan_a(4), name)
    if name == "A4(-5)":
        return Lattice(cartan_a(4).scale(-5), name)
    if name == "A4*(-5)":
        # the dual Gram matrix A4^-1 rescaled by -5 is integral, as det A4 = 5
        return Lattice(solve(cartan_a(4), identity(4).scale(-5)), name)
    if name == "H5":
        return Lattice(Matrix([[2, 1], [1, -2]]), name)
    raise ValueError(f"unknown standard lattice name: {name!r}")


def direct_sum(*lattices: Lattice, name: str | None = None) -> Lattice:
    """The orthogonal sum of ``lattices``, not checked again.

    Valid blocks make a valid block-diagonal Gram matrix, and its
    determinant is the product of their ``det``.
    """
    if name is None and lattices:
        parts = [lat.name for lat in lattices]
        if all(parts):
            name = " + ".join(parts)
    gram = block_diag(*(lat.gram for lat in lattices))
    return Lattice._trusted(gram, name, prod(lat.det for lat in lattices))


def _blocks(gram: Matrix) -> list[tuple[tuple[int, ...], ...]]:
    """The Gram rows of the connected blocks of ``gram``: indices i and j are joined when g_ij != 0.

    A block's indices need not be contiguous; they are taken in increasing
    order, so a block-diagonal Gram matrix gives its diagonal blocks.
    """
    data = gram.data
    indices = range(gram.rows)
    seen = [False] * gram.rows
    blocks = []
    for start in indices:
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:
            for j in compress(indices, data[i]):
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
        block.sort()
        lo, hi = block[0], block[-1] + 1
        if hi - lo == len(block):
            blocks.append(tuple(row[lo:hi] for row in data[lo:hi]))
        else:
            blocks.append(tuple(map(itemgetter(*block), map(data.__getitem__, block))))
    return blocks


def signature(lat: Lattice) -> tuple[int, int]:
    """Exact inertia (n_plus, n_minus), the sum of the inertias of the connected Gram blocks."""
    pairs = [_block_signature(rows) for rows in _blocks(lat.gram)]
    return (sum(p for p, _ in pairs), sum(m for _, m in pairs))


@lru_cache(maxsize=64)
def _block_signature(rows: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """The inertia of one Gram block, via fraction-free symmetric elimination over Z.

    Each pivot alpha = a_dd takes the Bareiss step
    a_kl <- (alpha a_kl - a_kd a_dl) // prev, exact as every entry is a
    minor of the Gram matrix (in the current basis).  The block is prev
    times the Schur complement, so the pivot counts with the sign of
    alpha / prev.  When the remaining diagonal is zero, the congruence
    e_d -> e_d + e_j with a_dj != 0 makes a_dd = 2 a_dj and keeps prev,
    the minor of the earlier pivots.

    Rows are rescaled lazily, as in ``matrix._det_bareiss``: a row with
    a_kd = 0 is left as it is, with ``scale``, the pivot that last wrote
    it, so its true entries are its entries times prev / scale, a factor
    that may be negative.  A row with a_kd != 0 becomes
    (alpha a_kl - a_kd a_dl) // scale at once.  Whether a diagonal entry is
    zero, and a column operation, which acts inside each row, do not depend
    on the scale; the pivot row, whose alpha is counted, and the two rows
    that the congruence adds are rescaled to their true entries first.
    """
    a = [list(row) for row in rows]
    scale = [1] * len(a)
    plus = minus = 0
    prev = 1
    while a:
        d = next((i for i, row in enumerate(a) if row[i]), None)
        if d is None:
            # a nondegenerate block with zero diagonal has a nonzero a_dj
            d, j = next((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
            for i in (d, j):
                a[i] = [x * prev // scale[i] for x in a[i]]
                scale[i] = prev
            a[d] = [x + y for x, y in zip(a[d], a[j])]
            for row in a:
                row[d] += row[j]
        pivot, s = a.pop(d), scale.pop(d)
        if s != prev:
            pivot = [x * prev // s for x in pivot]
        alpha = pivot.pop(d)
        if (alpha > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        for i, row in enumerate(a):
            ck = row.pop(d)
            if ck:
                a[i] = [(alpha * x - ck * y) // scale[i] for x, y in zip(row, pivot)]
                scale[i] = alpha
        prev = alpha
    return (plus, minus)


def discriminant_group(lat: Lattice) -> tuple[int, ...]:
    """Invariant factors d_j > 1 of the discriminant group, the orders of its cyclic factors.

    D(L1 + L2) = D(L1) + D(L2), so the generator orders of the block forms
    of ``_block_form`` (the invariant factors of each connected Gram block)
    are pooled and brought into the chain d_1 | d_2 | ... by
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), with no factorization: after
    pass i, d_i divides every later d_j.
    """
    d = [x for rows in _blocks(lat.gram) for x in _block_form(rows).orders]
    for i, j in combinations(range(len(d)), 2):
        d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(x for x in d if x > 1)


class FiniteQuadraticForm(_Frozen):
    """A finite quadratic form presented by generators.

    q takes values in Q/2Z (stored in [0,2)), the associated bilinear form b
    in Q/Z (stored in [0,1)).  Generator orders are presentation data; they
    form the invariant factor chain when produced by discriminant_form but
    may be an arbitrary diagonal presentation for hand-built targets.

    q and b must be well defined on the group, as every discriminant form
    is: o_i^2 q_i in 2Z and o_i b_ij in Z for each generator g_i of order
    o_i, so that q(x + o_i g_i) = q(x) and b(x + o_i g_i, y) = b(x, y).
    Any other presentation is refused with a ValueError.
    """

    __slots__ = ("orders", "q_values", "b_matrix")

    def __init__(self, orders: tuple[int, ...], q_values: tuple[Fraction, ...],
                 b_matrix: tuple[tuple[Fraction, ...], ...]):
        k = len(orders)
        if len(q_values) != k or len(b_matrix) != k:
            raise ValueError("inconsistent generator data")
        if any(o < 2 for o in orders):
            raise ValueError("generator orders must be >= 2")
        for i, (o, q, row) in enumerate(zip(orders, q_values, b_matrix)):
            if len(row) != k:
                raise ValueError("bilinear matrix is not square")
            n, d = q.numerator, q.denominator
            if row[i].denominator != d or row[i].numerator != n % d:
                raise ValueError("diagonal of b must equal q mod 1")
            if tuple(row) != tuple([r[i] for r in b_matrix]):
                raise ValueError("bilinear matrix must be symmetric")
            if o * o * n % (2 * d):
                raise ValueError(f"q is not well defined: generator {i} of order {o} "
                                 f"has o^2 q = {o * o * q}, which is not even")
            if any(o % x.denominator for x in row):
                raise ValueError(f"b is not well defined: generator {i} of order {o} "
                                 f"has a value o b_ij that is not an integer")
        super().__init__(orders, q_values, b_matrix)

    @property
    def group_order(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def is_trivial(self) -> bool:
        return not self.orders


def _mod(x, m: int) -> Fraction:
    """x mod m in [0, m) for a rational x: n/d gives Fraction(n % md, d), one Fraction."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    d = x.denominator
    return Fraction(x.numerator % (m * d), d)


def fqf_from_generators(orders, q_values, b_matrix) -> FiniteQuadraticForm:
    k = len(orders)
    q = tuple(_mod(x, 2) for x in q_values)
    b = tuple(tuple(_mod(b_matrix[i][j], 1) for j in range(k)) for i in range(k))
    return FiniteQuadraticForm(tuple(int(o) for o in orders), q, b)


def fqf_from_diagonal(pairs) -> FiniteQuadraticForm:
    """Orthogonal sum of cyclic forms Z/d(q) from a list of (d, q) pairs."""
    orders = [d for d, _ in pairs]
    qs = [q for _, q in pairs]
    k = len(orders)
    b = [[qs[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return fqf_from_generators(orders, qs, b)


def _gram_form(gram: Matrix) -> FiniteQuadraticForm:
    """The discriminant form of the Gram matrix ``gram``, presented by its Smith columns.

    With D = U G V the Smith form, the classes of g_j = v_j / d_j over the
    invariant factors d_j > 1 generate cyclic factors of order d_j of D_L.
    They pair to W_ij / (d_i d_j), with W = V^T G V the integer Gram matrix
    of the Smith columns v_j; so q_i = W_ii / d_i^2 mod 2 and
    b_ij = W_ij / (d_i d_j) mod 1, read off one integer product.
    """
    d, v = smith_normal_form(gram)
    picked = [j for j in range(gram.rows) if d.data[j][j] > 1]
    orders = [d.data[j][j] for j in picked]
    columns = Matrix._of_ints(tuple(tuple(row[j] for j in picked) for row in v.data), len(picked))
    w = (columns.transpose() @ gram @ columns).data
    q = [Fraction(w[i][i], d * d) for i, d in enumerate(orders)]
    b = [[Fraction(x, d * e) for x, e in zip(row, orders)] for row, d in zip(w, orders)]
    return fqf_from_generators(orders, q, b)


def discriminant_form(lat: Lattice) -> FiniteQuadraticForm:
    """The discriminant quadratic form of an even lattice, from one whole-Gram Smith form.

    Its generators are the Smith columns of the whole Gram matrix, so their
    orders are the invariant factors of D_L and ``lattice info`` prints
    their q-values.
    """
    return _gram_form(lat.gram)


@lru_cache(maxsize=64)
def _block_form(rows: tuple[tuple[int, ...], ...]) -> FiniteQuadraticForm:
    """The discriminant form of one Gram block, from one Smith form of that block."""
    return _gram_form(Matrix._of_ints(rows, len(rows)))


def orthogonal_discriminant_form(lat: Lattice) -> FiniteQuadraticForm:
    """The discriminant form of ``lat`` as the orthogonal sum of its nontrivial block forms.

    D(L1 + L2) = D(L1) + D(L2), so this is isometric to
    ``discriminant_form(lat)``, but presented block by block: the
    generators of ``_block_form`` of each connected Gram block in turn,
    pairing to 0 across blocks.  Each distinct block takes one Smith form
    per process, and none takes the whole Gram matrix.
    """
    forms = [form for form in map(_block_form, _blocks(lat.gram)) if form.orders]
    orders = sum((form.orders for form in forms), ())
    zero, b = Fraction(0), []
    for form in forms:
        before, after = len(b), len(orders) - len(b) - len(form.orders)
        b += [(zero,) * before + row + (zero,) * after for row in form.b_matrix]
    q = sum((form.q_values for form in forms), ())
    return FiniteQuadraticForm._trusted(orders, q, tuple(b))


def is_p_elementary(orders, p: int) -> tuple[bool, int | None]:
    """Whether the invariant factors ``orders`` give (Z/p)^a; returns (flag, a).

    The orders are the invariant factors d_j > 1 of the Smith form D of a
    Gram matrix.  Pass ``discriminant_group(lat)``, which reads the
    memoized forms of the distinct Gram blocks, or
    ``discriminant_form(lat).orders`` when the whole-Gram form is built
    anyway; the trivial group gives (True, 0).
    """
    if all(o == p for o in orders):
        return True, len(orders)
    return False, None


class Sublattice(_Frozen):
    """A sublattice given by basis columns in ambient coordinates."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: Lattice, basis: Matrix):
        if basis.rows != ambient.rank:
            raise ValueError("basis rows must match ambient rank")
        # B^T B is nonsingular exactly when the columns of B are independent over Q
        if exact_det(basis.transpose() @ basis) == 0:
            raise ValueError("basis columns are dependent")
        super().__init__(ambient, basis)

    @property
    def rank(self) -> int:
        return self.basis.cols


def orthogonal_complement(sub: Sublattice) -> Sublattice:
    """All ambient vectors pairing to zero with the sublattice; always saturated."""
    pairings = sub.basis.transpose() @ sub.ambient.gram
    return Sublattice._trusted(sub.ambient, integer_kernel(pairings))


# ---------------------------------------------------------------------------
# finite quadratic form isomorphism


def group_signature(orders) -> dict[int, tuple[int, ...]]:
    """Multiset of prime power exponents per prime; classifies the abelian group."""
    sig: dict[int, list[int]] = {}
    for o in orders:
        for p, v in factorize(o).items():
            sig.setdefault(p, []).append(v)
    return {p: tuple(sorted(v)) for p, v in sig.items()}


def _p_parts(form: FiniteQuadraticForm) -> dict[int, tuple[list, list, list]]:
    """The p-primary parts of ``form`` as {p: (orders, Q, B)} in integers, each on its own scale.

    A generator g of order o = p^v c, with c prime to p, gives the
    generator c g of order p^v; a part's generators are sorted by order,
    ties by position.  A part whose largest order is p^K is scaled by p^K:
    Q = c^2 q(g) p^K mod 2p^K and B = c c' b(g, g') p^K mod p^K.  A value
    n/d of g has d | o, as the FiniteQuadraticForm constructor guarantees,
    so these are the exact integers c^2 n p^K // d and c c' n p^K // d.
    Each order is factorized once.
    """
    gens: dict[int, list[tuple[int, int]]] = {}
    for i, o in enumerate(form.orders):
        for p, v in factorize(o).items():
            gens.setdefault(p, []).append((p ** v, i))
    parts = {}
    for p, part in gens.items():
        part.sort()
        top = part[-1][0]
        idx = [i for _, i in part]
        cof = [form.orders[i] // power for power, i in part]
        qs = [c * c * x.numerator * top // x.denominator % (2 * top)
              for c, x in zip(cof, map(form.q_values.__getitem__, idx))]
        bm = [[c * d * x.numerator * top // x.denominator % top
               for d, x in zip(cof, map(row.__getitem__, idx))]
              for c, row in zip(cof, map(form.b_matrix.__getitem__, idx))]
        parts[p] = ([power for power, _ in part], qs, bm)
    return parts


def p_primary_part(form: FiniteQuadraticForm, p: int) -> FiniteQuadraticForm:
    """Restriction of the form to the p-primary component of the group."""
    orders, qs, bm = _p_parts(form).get(p, ([], [], []))
    top = max(orders, default=1)
    return FiniteQuadraticForm(
        tuple(orders),
        tuple(Fraction(q, top) for q in qs),
        tuple(tuple(Fraction(x, top) for x in row) for row in bm),
    )


def _elements(orders, qs, rows, width: int):
    """(order, Q(e), W(e)) for every element e of a p-part, e in lexicographic order.

    Q and B are scaled by the largest order p^K.  W(e) packs the pairing
    row e^T B into slots of ``width`` bits, slot j holding sum_i e_i B_ij
    unreduced; ``rows[i]`` is row i of B packed the same way.  Built one
    generator at a time: Q(e + a g_i) = Q(e) + a^2 Q_i + 2 a w(e)_i when e
    involves only the generators before g_i, and 2 a w_i mod 2p^K does not
    depend on reducing w_i mod p^K.  The orders are powers of one prime, so
    the order of e is the largest order of its coordinates.
    """
    mask = (1 << width) - 1
    two_top = 2 * max(orders)
    out = [(1, 0, 0)]
    for i, o in enumerate(orders):
        shift = i * width
        steps = [(o // gcd(a, o), a * a * qs[i], 2 * a, a * rows[i]) for a in range(o)]
        out = [
            (ao if ao > eo else eo, (q + aq + twice_a * (w >> shift & mask)) % two_top, w + aw)
            for eo, q, w in out
            for ao, aq, twice_a, aw in steps
        ]
    return out


def _odd_jordan(orders, bm, p: int):
    """The Jordan invariants {p^s: (r_s, d_s^((p - 1)/2) mod p)} of an odd p-part, or None.

    r_s is the rank of the constituent of scale p^s and d_s its
    determinant, so the second entry is its Legendre symbol (1 or p - 1).
    They fix the form, as q is a function of b when p is odd.  None when b
    is degenerate.  Works on a copy of B, which is the Gram matrix of the
    current generators mod p^K, with p^K the largest order: an entry of
    least valuation e is moved to the diagonal (g_i + g_j, whose square
    2 b_ij + b_ii + b_jj keeps valuation e as p is odd), that generator x
    is split off at scale p^s = p^(K - e), and every other generator g is
    replaced by its projection g - c x to x^perp.  The x are orthogonal
    with b(x, x) of order p^s and, with the rest pairing to zero, they
    generate the group modulo the radical of b: so the scales multiply to
    |G| / |radical|, and b is nondegenerate exactly when they multiply to
    |G| (then each x has order p^s).
    """
    top = max(orders)
    a = [list(row) for row in bm]
    units: dict[int, list[int]] = {}
    while a:
        g, offdiag, i, j = min((gcd(x, top), i != j, i, j)
                               for i, row in enumerate(a) for j, x in enumerate(row))
        if g == top:
            break
        if offdiag:
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
        pivot = a.pop(i)
        unit = pivot.pop(i) % top // g
        scale = top // g
        units.setdefault(scale, []).append(unit)
        inverse = pow(unit, -1, scale)
        for r, row in enumerate(a):
            c = row.pop(i) // g * inverse % scale
            if c:
                a[r] = [(y - c * z) % top for y, z in zip(row, pivot)]
    if prod(s ** len(us) for s, us in units.items()) != prod(orders):
        return None
    return {s: (len(us), pow(prod(us), (p - 1) // 2, p)) for s, us in units.items()}


def _extend(chosen, domains, b1, top: int, p: int) -> bool:
    """Search images for generators i = len(chosen), i + 1, ... with forward checking.

    ``domains[s]`` holds the candidates (e, w(e)) for generator i + s that
    pair correctly with every image chosen so far; pairings are read mod
    the part's largest order ``top``.  Choosing the image of generator i
    filters each later domain t to b(c, image) = B1[t][i]; an empty domain
    backtracks at once.
    """
    i = len(chosen)
    if not domains:
        return exact_det(Matrix(chosen)) % p != 0  # the images generate
    for e, w in domains[0]:
        narrowed = []
        for t, dom in enumerate(domains[1:], i + 1):
            target = b1[t][i]
            keep = [c for c in dom if sum([x * y for x, y in zip(c[0], w)]) % top == target]
            if not keep:
                break
            narrowed.append(keep)
        else:
            chosen.append(e)
            if _extend(chosen, narrowed, b1, top, p):
                return True
            chosen.pop()
    return False


def _parts_isomorphic(part1, part2, p: int) -> bool:
    """Decide isomorphism of two p-parts (orders, Q, B) of ``_p_parts`` with equal orders."""
    (orders, q1, b1), (_, q2, b2) = part1, part2
    if p != 2 and (jordan := _odd_jordan(orders, b1, p)) is not None:
        other = _odd_jordan(orders, b2, p)
        if other is not None:
            return jordan == other
    k = len(orders)
    top = max(orders)
    # slot j of W(e) is a sum of k terms e_i B_ij < top * top
    width = (k * top * top).bit_length()
    mask = (1 << width) - 1

    def packed(bm):
        return [sum(x << (j * width) for j, x in enumerate(row)) for row in bm]

    key = itemgetter(0, 1)
    elems = _elements(orders, q2, packed(b2), width)
    # an isomorphism preserves the order and Q of every element, so the
    # (order, Q) counts must agree
    census1 = Counter(map(key, _elements(orders, q1, packed(b1), width)))
    if census1 != Counter(map(key, elems)):
        return False
    # unpack coordinates and rows only for the candidates of some generator
    by_key: dict[tuple[int, int], list] = {(o, q): [] for o, q in zip(orders, q1)}
    shifts = [j * width for j in range(k)]
    candidates = compress(zip(product(*map(range, orders)), elems),
                          map(by_key.__contains__, map(key, elems)))
    for e, (o, q, w) in candidates:
        by_key[o, q].append((e, tuple([(w >> s & mask) % top for s in shifts])))
    domains = [by_key[o, q] for o, q in zip(orders, q1)]
    return _extend([], domains, b1, top, p)


def fqf_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """Decide isomorphism of finite quadratic forms.

    Each form is split once into its p-primary parts by ``_p_parts``, and
    each part is scaled by its own largest order p^K: q becomes Q = q p^K
    mod 2p^K and b becomes B = b p^K mod p^K, exact integers as the form is
    well defined.  The groups are isomorphic exactly when the parts have
    the same orders for every p; each pair of p-parts is then decided on
    its own.

    For odd p, when b is nondegenerate on both parts, q is a function of b
    and the parts are isomorphic exactly when their Jordan invariants
    agree: the rank r_s of the constituent of each scale p^s and the
    Legendre symbol of its determinant (Wall 1963; Nikulin 1980, section
    1.8), read off by ``_odd_jordan`` in O(k^3).

    Every other pair of parts (p = 2, or a degenerate b) is searched.
    Every element of both groups gets its order and Q; an isomorphism
    preserves both, so differing (order, Q) counts decide "not isomorphic"
    without a search.  Otherwise the images of the generators of the first
    form are searched among the elements of the second with matching order
    and Q.  Choosing an image filters the candidates of every later
    generator to the correct pairing with it, and an empty candidate list
    backtracks at once.  A complete assignment is accepted when the images
    generate (checked modulo p).

    Each element carries its pairing row e^T B as one int of k slots of
    ``width`` bits, left unreduced: a slot holds less than k p^K p^K, and
    ``width`` is the bit length of that bound, so no slot overflows into
    the next.  Coordinates and rows w(e) = e^T B mod p^K are unpacked only
    for the search candidates, so b is an integer dot product there.  The
    group order is capped at ``FQF_ORDER_CAP`` for every input.
    """
    if max(f1.group_order, f2.group_order) > FQF_ORDER_CAP:
        raise ValueError(f"group order exceeds cap {FQF_ORDER_CAP}")
    parts1, parts2 = _p_parts(f1), _p_parts(f2)
    if {p: part[0] for p, part in parts1.items()} != {p: part[0] for p, part in parts2.items()}:
        return False
    return all(_parts_isomorphic(parts1[p], parts2[p], p) for p in parts1)


# ---------------------------------------------------------------------------
# serialization


def lattice_from_dict(d: dict) -> Lattice:
    if "gram" not in d:
        raise ValueError("lattice object needs a 'gram' field")
    gram = d["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ValueError("'gram' must be a list of rows")
    if len(gram) > MAX_RANK:
        raise ValueError(f"'gram' has {len(gram)} rows; the rank bound is {MAX_RANK}")
    name = d.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"lattice 'name' must be a string or null, not {type(name).__name__}")
    return Lattice(Matrix(gram), name)
