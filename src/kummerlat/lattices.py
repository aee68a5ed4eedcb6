"""Even integral lattices given by Gram matrices.

Provides the standard named lattices (U, E8(-1), A4(-1), H5, ...), direct
sums, exact signatures, discriminant groups and forms, and isomorphism
testing of finite quadratic forms on their p-primary parts: an (order, q)
census of both groups, then a backtracking search for generator images
with forward checking, all in integers scaled by the common denominator
of the forms' values.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm, prod

from .cyclotomic import factorize
from .matrix import (
    Matrix,
    block_diag,
    exact_det,
    identity,
    integer_kernel,
    smith_normal_form,
    solve,
)

FQF_ORDER_CAP = 10000


@dataclass(frozen=True)
class Lattice:
    """An even integral lattice with a nondegenerate symmetric Gram matrix.

    ``det``, the determinant of the Gram matrix, is computed once, by the
    nondegeneracy check.
    """

    gram: Matrix
    name: str | None = None
    det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gram
        if not g.is_square:
            raise ValueError("Gram matrix must be square")
        if not g.is_symmetric:
            raise ValueError("Gram matrix must be symmetric")
        if any(g.data[i][i] % 2 for i in range(g.rows)):
            raise ValueError("lattice is not even: odd diagonal entry in Gram matrix")
        det = exact_det(g)
        if det == 0:
            raise ValueError("Gram matrix is degenerate")
        object.__setattr__(self, "det", det)

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
    "H5", and "<k>" for even nonzero k.
    """
    name = name.strip()
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
    if not lattices:
        return Lattice(Matrix([]), name)
    if name is None:
        parts = [lat.name for lat in lattices]
        if all(parts):
            name = " + ".join(parts)
    return Lattice(block_diag(*(lat.gram for lat in lattices)), name)


def signature(lat: Lattice) -> tuple[int, int]:
    """Exact inertia (n_plus, n_minus), via symmetric block diagonalization.

    Uses 1x1 pivots when a nonzero diagonal entry is available and hyperbolic
    2x2 blocks otherwise; all arithmetic is rational.
    """
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


@dataclass(frozen=True)
class DiscriminantGroup:
    """Invariant factor decomposition of dual/lattice, with explicit generators.

    Generators are vectors in L tensor Q (lattice coordinates); generator i
    has the stated order in the quotient.
    """

    orders: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def is_trivial(self) -> bool:
        return not self.orders


def _smith_generators(lat: Lattice) -> tuple[list[int], Matrix]:
    """The invariant factors d_j > 1 of G and, as columns, the v_j of U G V = D (Smith form).

    The class of v_j / d_j generates a cyclic factor of order d_j of D_L.
    """
    _, d, v = smith_normal_form(lat.gram)
    picked = [j for j in range(lat.rank) if d.data[j][j] > 1]
    columns = tuple(tuple(row[j] for j in picked) for row in v.data)
    return [d.data[j][j] for j in picked], Matrix._of_ints(columns, len(picked))


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """Invariant factors and dual-vector generators v_j / d_j of the discriminant group."""
    orders, v = _smith_generators(lat)
    gens = tuple(tuple(Fraction(x, d) for x in column)
                 for d, column in zip(orders, v.transpose().data))
    return DiscriminantGroup(tuple(orders), gens)


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """A finite quadratic form presented by generators.

    q takes values in Q/2Z (stored in [0,2)), the associated bilinear form b
    in Q/Z (stored in [0,1)).  Generator orders are presentation data; they
    form the invariant factor chain when produced by discriminant_form but
    may be an arbitrary diagonal presentation for hand-built targets.
    """

    orders: tuple[int, ...]
    q_values: tuple[Fraction, ...]
    b_matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.orders)
        if len(self.q_values) != k or len(self.b_matrix) != k:
            raise ValueError("inconsistent generator data")
        if any(o < 2 for o in self.orders):
            raise ValueError("generator orders must be >= 2")
        for i in range(k):
            if len(self.b_matrix[i]) != k:
                raise ValueError("bilinear matrix is not square")
            if self.b_matrix[i][i] != self.q_values[i] % 1:
                raise ValueError("diagonal of b must equal q mod 1")
            for j in range(k):
                if self.b_matrix[i][j] != self.b_matrix[j][i]:
                    raise ValueError("bilinear matrix must be symmetric")

    @property
    def group_order(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def is_trivial(self) -> bool:
        return not self.orders


def fqf_from_generators(orders, q_values, b_matrix) -> FiniteQuadraticForm:
    k = len(orders)
    q = tuple(Fraction(x) % 2 for x in q_values)
    b = tuple(tuple(Fraction(b_matrix[i][j]) % 1 for j in range(k)) for i in range(k))
    return FiniteQuadraticForm(tuple(int(o) for o in orders), q, b)


def fqf_from_diagonal(pairs) -> FiniteQuadraticForm:
    """Orthogonal sum of cyclic forms Z/d(q) from a list of (d, q) pairs."""
    orders = [d for d, _ in pairs]
    qs = [Fraction(q) % 2 for _, q in pairs]
    k = len(orders)
    b = [[qs[i] % 1 if i == j else Fraction(0) for j in range(k)] for i in range(k)]
    return fqf_from_generators(orders, qs, b)


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


def discriminant_form(lat: Lattice) -> FiniteQuadraticForm:
    """The discriminant quadratic form of an even lattice.

    The generators g_i = v_i / d_i of ``discriminant_group`` pair to
    W_ij / (d_i d_j), with W = V^T G V the integer Gram matrix of the Smith
    columns v_i; so q_i = W_ii / d_i^2 mod 2 and b_ij = W_ij / (d_i d_j)
    mod 1, read off one integer product.
    """
    orders, v = _smith_generators(lat)
    w = (v.transpose() @ lat.gram @ v).data
    q = [Fraction(w[i][i], d * d) for i, d in enumerate(orders)]
    b = [[Fraction(x, d * e) for x, e in zip(row, orders)] for row, d in zip(w, orders)]
    return fqf_from_generators(orders, q, b)


def _p_elementary(orders, p: int) -> tuple[bool, int | None]:
    """Whether the invariant factors ``orders`` give (Z/p)^a; returns (flag, a)."""
    if all(o == p for o in orders):
        return True, len(orders)
    return False, None


def is_p_elementary(lat: Lattice, p: int) -> tuple[bool, int | None]:
    """Whether D_L is (Z/p)^a; returns (flag, a) with a = 0 for unimodular."""
    return _p_elementary(discriminant_group(lat).orders, p)


@dataclass(frozen=True)
class Sublattice:
    """A sublattice given by basis columns in ambient coordinates."""

    ambient: Lattice
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient.rank:
            raise ValueError("basis rows must match ambient rank")
        # B^T B is nonsingular exactly when the columns of B are independent over Q
        if exact_det(self.basis.transpose() @ self.basis) == 0:
            raise ValueError("basis columns are dependent")

    @property
    def rank(self) -> int:
        return self.basis.cols

    @cached_property
    def induced_gram(self) -> Matrix:
        return self.basis.transpose() @ self.ambient.gram @ self.basis


def orthogonal_complement(sub: Sublattice) -> Sublattice:
    """All ambient vectors pairing to zero with the sublattice; always saturated."""
    pairings = sub.basis.transpose() @ sub.ambient.gram
    return Sublattice(sub.ambient, integer_kernel(pairings))


# ---------------------------------------------------------------------------
# finite quadratic form isomorphism


def group_signature(orders) -> dict[int, tuple[int, ...]]:
    """Multiset of prime power exponents per prime; classifies the abelian group."""
    sig: dict[int, list[int]] = {}
    for o in orders:
        for p, v in factorize(o).items():
            sig.setdefault(p, []).append(v)
    return {p: tuple(sorted(v)) for p, v in sig.items()}


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


def _scaled(form: FiniteQuadraticForm, m: int):
    """Q_i = q_i m mod 2m and B_ij = b_ij m mod m, for m a multiple of every denominator."""
    qs = [int(q * m) % (2 * m) for q in form.q_values]
    bm = [[int(x * m) % m for x in row] for row in form.b_matrix]
    return qs, bm


def _elements(orders, qs, bm, m):
    """Every element e of the group as (e, order, Q(e), w(e) = e^T B mod m).

    Built one generator at a time: Q(e + a g_i) = Q(e) + a^2 Q_i + 2 a w(e)_i
    when e involves only the generators before g_i.  The orders are powers of
    one prime, so the order of e is the largest order of its coordinates.
    """
    out = [((), 1, 0, (0,) * len(orders))]
    for i, o in enumerate(orders):
        steps = [(a, o // gcd(a, o), a * a * qs[i], [a * x for x in bm[i]]) for a in range(o)]
        out = [
            (
                e + (a,),
                max(eo, ao),
                (q + aq + 2 * a * w[i]) % (2 * m),
                tuple((x + y) % m for x, y in zip(w, aw)),
            )
            for e, eo, q, w in out
            for a, ao, aq, aw in steps
        ]
    return out


def _descends(orders, qs, bm, m) -> bool:
    """Whether q is well defined on the group, not just on coordinate tuples."""
    return all(
        o * o * qi % (2 * m) == 0 and all(o * x % m == 0 for x in row)
        for o, qi, row in zip(orders, qs, bm)
    )


def _extend(chosen, domains, b1, m: int, p: int) -> bool:
    """Search images for generators i = len(chosen), i + 1, ... with forward checking.

    ``domains[s]`` holds the candidates (e, w(e)) for generator i + s that
    pair correctly with every image chosen so far.  Choosing the image of
    generator i filters each later domain t to b(c, image) = B1[t][i]; an
    empty domain backtracks at once.
    """
    i = len(chosen)
    if not domains:
        return exact_det(Matrix(chosen)) % p != 0  # the images generate
    for e, w in domains[0]:
        narrowed = []
        for t, dom in enumerate(domains[1:], i + 1):
            target = b1[t][i]
            keep = [c for c in dom if sum([x * y for x, y in zip(c[0], w)]) % m == target]
            if not keep:
                break
            narrowed.append(keep)
        else:
            chosen.append(e)
            if _extend(chosen, narrowed, b1, m, p):
                return True
            chosen.pop()
    return False


def _p_forms_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm, p: int) -> bool:
    k = len(f1.orders)
    if f1.orders != f2.orders:
        return False
    if k == 0:
        return True
    m = lcm(*(x.denominator for f in (f1, f2) for x in chain(f.q_values, *f.b_matrix)))
    q1, b1 = _scaled(f1, m)
    q2, b2 = _scaled(f2, m)
    elems = _elements(f2.orders, q2, b2, m)
    # an isomorphism preserves the order and Q of every element, so the
    # (order, Q) counts must agree, provided Q is a function on f2's group
    if _descends(f2.orders, q2, b2, m):
        census1 = Counter((o, q) for _, o, q, _ in _elements(f1.orders, q1, b1, m))
        if census1 != Counter((o, q) for _, o, q, _ in elems):
            return False
    by_key: dict[tuple[int, int], list] = {}
    for e, o, q, w in elems:
        by_key.setdefault((o, q), []).append((e, w))
    domains = [by_key.get((f1.orders[i], q1[i]), []) for i in range(k)]
    return _extend([], domains, b1, m, p)


def fqf_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """Decide isomorphism of finite quadratic forms.

    Splits both forms into p-primary parts and decides each pair of parts in
    integers: with m the lcm of the denominators of all q and b values of the
    two parts, q becomes Q = q m mod 2m and b becomes B = b m mod m, which is
    exact for any rational presentation.  Every element of both groups gets
    its order and Q; an isomorphism preserves both, so differing (order, Q)
    counts decide "not isomorphic" without a search (only when q is well
    defined on the second group, as it is on every discriminant form).
    Otherwise the images of the generators of the first form are searched
    among the elements of the second with matching order and Q.  Each
    element carries its pairing row w(e) = e^T B mod m, so b is an integer
    dot product; choosing an image filters the candidates of every later
    generator to the correct pairing with it, and an empty candidate list
    backtracks at once.  A complete assignment is accepted when the images
    generate (checked modulo p).
    """
    if max(f1.group_order, f2.group_order) > FQF_ORDER_CAP:
        raise ValueError(f"group order exceeds cap {FQF_ORDER_CAP}")
    if f1.group_order != f2.group_order:
        return False
    sig1, sig2 = group_signature(f1.orders), group_signature(f2.orders)
    if sig1 != sig2:
        return False
    for p in sig1:
        if not _p_forms_isomorphic(p_primary_part(f1, p), p_primary_part(f2, p), p):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def lattice_from_dict(d: dict) -> Lattice:
    if "gram" not in d:
        raise ValueError("lattice object needs a 'gram' field")
    gram = d["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ValueError("'gram' must be a list of rows")
    return Lattice(Matrix(gram), d.get("name"))
