"""Topological Lefschetz numbers of natural automorphisms of generalized
Kummer varieties, through the character-sum generating function.

A torus automorphism psi = (translation by an n-torsion point b) composed
with a group automorphism h acts on the n-th generalized Kummer variety.
Writing Psi for the induced action on degree one cohomology (the transpose
of the lattice matrix H of h), the q-refined Lefschetz number of the induced
automorphism is

    L(psi^[n], q) = q^(2n) / L(psi, q) * [t^n] sum over h-fixed characters
        chi of the n-torsion group of chi(b) *
        prod_{v >= 1} prod_{i = 0..4}
            det(1 - wedge^i(Psi) q^(i-2) t^(v |chi|))^( (-1)^(i+1) ),

where |chi| is the order of the character and L(psi, q) = det(1 - q Psi).

Every quantity on the way is a rational integer, and the engine computes
over Z only:

* The product depends on chi only through its order w, so the sum is
  grouped by order.  The fixed characters of order w are permuted by the
  units mod n, hence the pairings k = <chi, b> mod n are equidistributed on
  each Galois class {k : gcd(k, n) = g}, and the zeta_n^k of one class sum
  to the Ramanujan sum moebius(n / g).  So sigma_w, the sum of chi(b) over
  the fixed chi of order w, is sum_g count_g * moebius(n / g), with count_g
  the number of characters pairing to any one k of the class.
* Every wedge factor det(1 - x wedge^i(Psi)) is fixed by the eigenvalues
  lambda of Psi, so the product is the exponential of its logarithm
  (Newton's identities; Macdonald, Symmetric Functions and Hall
  Polynomials, ch. I.2).  The power sums p_k = tr Psi^k follow from
  c = det(1 - x Psi) by k c_k + sum_(j=1..k) p_j c_(k-j) = 0, and from
  p_s, p_2s, p_3s, p_4s the power-sum table E_i(s) = e_i(lambda^s) =
  tr wedge^i(Psi^s).  With D_s(q) = sum_i (-1)^i E_i(s) q^((i-2) s), the
  product over i is F(x) = exp(sum_s D_s x^s / s), so
  G(u) = prod_(v >= 1) F(u^v) has k [u^k] log G = sum_(s | k) (k / s) D_s,
  an integer Laurent polynomial, and k G_k = sum_j (j log_j) G_(k-j)
  exponentiates it.  The product for the order w is G(t^w), whose t^n
  coefficient is G_(n/w) when w divides n and 0 otherwise.  No exterior
  power, wedge factor or series product is formed on the way.
* L(psi, q) has constant term 1 and leading coefficient det Psi = +-1, so
  the division by it is exact long division over Z (never an evaluation at
  q = 1, where L(psi, q) often vanishes).

Three runtime guards remain: the pairing counts must be constant on every
Galois class ("Galois-stability violated"), which makes each sigma_w
rational; every division in Newton's identities and in the exponential
recurrences must be exact ("integrality violated"); and the division by
L(psi, q) must leave no remainder ("division identity violated").  The
quotient then has integer coefficients and its value at q = 1 is the
integer Lefschetz number.

c = det(1 - x Psi) is kept in a bounded memo per matrix (``_charpoly``),
which ``lefschetz_poly_surface`` and the power sums read.  Everything that
depends on (h, n) but not on b is kept in one bounded memo (``_profile``),
so the translation variants of one matrix share it.  ``generating_series``
keeps the direct cyclotomic evaluation of the character sum, and
``_order_product`` the factor-by-factor product of the wedge series, as
references for the tests.

The catalog covers the torus automorphisms whose action on second cohomology
has prime order, together with their sign flips and translation variants,
all on the Kummer fourfold (n = 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber, moebius
from .matrix import Matrix, block_diag, exact_det, exact_inverse, identity
from .series import LaurentPoly, TruncatedBiSeries, laurent_divmod

# Largest accepted torsion order n; it keeps the accepted inputs those of
# the cyclotomic reference path (conductor at most 60).
MAX_TORSION = 60


def _check_torsion(n: int) -> None:
    if not 1 <= n <= MAX_TORSION:
        raise ValueError(f"torsion order n must be in 1..{MAX_TORSION}, got {n}")


@dataclass(frozen=True)
class TorusAutomorphism:
    """Lattice data of a torus automorphism psi = t_b compose h.

    ``matrix`` is the action of h on the rank four torus lattice in a fixed
    basis; ``translation`` holds the coordinates of the n-torsion point b
    (residues mod n); ``sign`` records whether the entry came from h or -h
    for catalog bookkeeping.
    """

    matrix: Matrix
    translation: tuple[int, int, int, int]
    torsion: int
    sign: int = 1
    label: str = ""

    def __post_init__(self):
        _check_torsion(self.torsion)
        if self.matrix.shape != (4, 4) or not self.matrix.is_integral:
            raise ValueError("torus automorphism needs an integral 4x4 matrix")
        if abs(exact_det(self.matrix)) != 1:
            raise ValueError("torus automorphism matrix must be unimodular")
        if len(self.translation) != 4:
            raise ValueError("translation must have four coordinates")
        if any(not 0 <= x < self.torsion for x in self.translation):
            raise ValueError("translation coordinates must be residues mod n")


def torus_automorphism(matrix: Matrix, translation, torsion: int, sign: int = 1,
                       label: str = "") -> TorusAutomorphism:
    _check_torsion(torsion)
    b = tuple(int(x) % torsion for x in translation)
    return TorusAutomorphism(matrix, b, torsion, sign, label)


@dataclass(frozen=True)
class CharacterClass:
    """A character of (Z/n)^4 in dual coordinates, with its order."""

    residues: tuple[int, int, int, int]
    order: int


@dataclass(frozen=True)
class LefschetzResult:
    polynomial: LaurentPoly  # rational coefficients, q^0 .. q^(4n-4)
    value: int


def exterior_power(m: Matrix, i: int) -> Matrix:
    """Action induced on the i-th exterior power of a 4x4 matrix.

    Basis: i-element index subsets in lexicographic order; the (S, T) entry
    is the minor with rows S and columns T.
    """
    if m.shape != (4, 4):
        raise ValueError("exterior_power expects a 4x4 matrix")
    if not 0 <= i <= 4:
        raise ValueError("exterior power index must be in 0..4")
    if i == 0:
        return identity(1)
    subsets = list(combinations(range(4), i))
    rows = []
    for s in subsets:
        row = []
        for t in subsets:
            minor = Matrix([[m.data[a][b] for b in t] for a in s])
            row.append(exact_det(minor))
        rows.append(row)
    return Matrix(rows)


def _det_one_minus_x(m: Matrix) -> list[int]:
    """Coefficients c_k with det(1 - x M) = sum c_k x^k, for an integral M.

    c_k is the coefficient of lambda^(d-k) in det(lambda - M), computed by
    the Faddeev-LeVerrier recurrence M_k = M M_(k-1) + c_(k-1),
    c_k = -tr(M M_k) / k, whose divisions are exact over Z.
    """
    if not m.is_integral:
        raise ValueError("_det_one_minus_x expects an integral matrix")
    a, d = m.data, m.rows
    coeffs = [1]
    acc = [[0] * d for _ in range(d)]
    for k in range(1, d + 1):
        c = coeffs[-1]
        acc = [
            [sum(x * acc[l][j] for l, x in enumerate(row)) + (c if i == j else 0)
             for j in range(d)]
            for i, row in enumerate(a)
        ]
        trace = sum(x * acc[l][i] for i, row in enumerate(a) for l, x in enumerate(row))
        coeffs.append(-trace // k)
    return coeffs


@lru_cache(maxsize=64)
def _charpoly(h_data) -> tuple[int, ...]:
    """c = det(1 - x Psi) for Psi the transpose of the matrix with rows h_data.

    The determinant is transpose invariant, so Faddeev-LeVerrier runs on h
    itself, once per matrix.
    """
    return tuple(_det_one_minus_x(Matrix(h_data)))


def lefschetz_poly_surface(h: Matrix) -> LaurentPoly:
    """L(psi, q) = det(1 - q Psi) with Psi the transpose of h.

    Equals the alternating sum of exterior power traces weighted by q^k.
    """
    return LaurentPoly({k: Fraction(c) for k, c in enumerate(_charpoly(h.data))})


def _exact_quotient(a: int, k: int, what: str) -> int:
    quotient, remainder = divmod(a, k)
    if remainder:
        raise ValueError(f"integrality violated: {what} = {a}/{k}")
    return quotient


def _power_sums(c, top: int) -> list[int]:
    """p_0 .. p_top with p_k = tr Psi^k, from c = det(1 - x Psi).

    Newton's identities k c_k + sum_(j=1..k) p_j c_(k-j) = 0 need no
    division, since c_0 = 1; p_0 is the size of Psi.
    """
    d = len(c) - 1
    p = [d]
    for k in range(1, top + 1):
        acc = k * c[k] if k <= d else 0
        for j in range(max(1, k - d), k):
            acc += p[j] * c[k - j]
        p.append(-acc)
    return p


def _elementary(sums) -> list[int]:
    """e_0 .. e_d of the numbers whose power sums are sums = (p_1, .., p_d).

    Newton's identities i e_i = sum_(j=1..i) (-1)^(j-1) p_j e_(i-j); every
    division by i must be exact, else ValueError("integrality violated").
    """
    e = [1]
    for i in range(1, len(sums) + 1):
        acc = sum((-1) ** (j - 1) * sums[j - 1] * e[i - j] for j in range(1, i + 1))
        e.append(_exact_quotient(acc, i, f"{i} e_{i}"))
    return e


def _wedge_table(c, top: int) -> list[tuple[int, ...]]:
    """The power-sum table: row s = 0..top holds E_i(s) = tr wedge^i(Psi^s).

    E_0(s), .., E_d(s) are the elementary symmetric functions of the
    eigenvalues of Psi^s, whose power sums are p_s, p_2s, .., p_ds.
    """
    d = len(c) - 1
    p = _power_sums(c, d * top)
    return [tuple(_elementary([p[j * s] for j in range(1, d + 1)])) for s in range(top + 1)]


def fixed_characters(h: Matrix, n: int) -> list[CharacterClass]:
    """All characters of (Z/n)^4 invariant under h, in lexicographic order.

    A character with dual coordinates c is fixed exactly when
    h^T c = c mod n; its order is n / gcd(c, n).
    """
    # (h^T - 1) c = sum_j c_j col_j, where col_j is row j of h minus e_j
    cols = [tuple(x - (i == j) for i, x in enumerate(row)) for j, row in enumerate(h.data)]
    (a0, a1, a2, a3), (b0, b1, b2, b3), (d0, d1, d2, d3), (e0, e1, e2, e3) = cols
    out = []
    for c0 in range(n):
        for c1 in range(n):
            s0, s1 = c0 * a0 + c1 * b0, c0 * a1 + c1 * b1
            s2, s3 = c0 * a2 + c1 * b2, c0 * a3 + c1 * b3
            for c2 in range(n):
                t0, t1, t2, t3 = s0 + c2 * d0, s1 + c2 * d1, s2 + c2 * d2, s3 + c2 * d3
                for c3 in range(n):
                    if ((t0 + c3 * e0) % n == 0 and (t1 + c3 * e1) % n == 0
                            and (t2 + c3 * e2) % n == 0 and (t3 + c3 * e3) % n == 0):
                        out.append(CharacterClass((c0, c1, c2, c3), n // gcd(c0, c1, c2, c3, n)))
    return out


def _character_order_sums(aut: TorusAutomorphism) -> dict[int, CyclotomicNumber]:
    """Reference path: sum of chi(b) over fixed chi of each order, in Q(zeta_n)."""
    n = aut.torsion
    sums: dict[int, CyclotomicNumber] = {}
    for chi in fixed_characters(aut.matrix, n):
        k = sum(c * b for c, b in zip(chi.residues, aut.translation)) % n
        value = CyclotomicNumber.zeta(n, k)
        if chi.order in sums:
            sums[chi.order] = sums[chi.order] + value
        else:
            sums[chi.order] = value
    return sums


def _wedge_factor(psi_coeffs: list[int], i: int, t_exp: int, trunc: int) -> TruncatedBiSeries:
    """det(1 - wedge^i(Psi) q^(i-2) t^w) truncated in t."""
    cs = [LaurentPoly.zero() for _ in range(trunc + 1)]
    for k, c in enumerate(psi_coeffs):
        te = k * t_exp
        if te > trunc:
            break
        if c:
            cs[te] = cs[te] + LaurentPoly.monomial(c, (i - 2) * k)
    return TruncatedBiSeries(trunc, cs)


def _order_product(psi: Matrix, w: int, trunc: int) -> TruncatedBiSeries:
    """Reference path: prod over v w <= trunc of the five wedge factors at t^(v w)."""
    wedge_coeffs = [_det_one_minus_x(exterior_power(psi, i)) for i in range(5)]
    total = TruncatedBiSeries.one(trunc)
    v = 1
    while v * w <= trunc:
        for i in range(5):
            factor = _wedge_factor(wedge_coeffs[i], i, v * w, trunc)
            if i % 2 == 0:
                factor = factor.invert()
            total = total * factor
        v += 1
    return total


def generating_series(aut: TorusAutomorphism, trunc: int) -> TruncatedBiSeries:
    """The character sum series in t with Laurent-in-q coefficients.

    The per-character product depends on the character only through its
    order, so the sum is grouped: sum_w (sum of chi(b) over fixed chi of
    order w) * (product for order w).  This is the cyclotomic reference
    path; ``lefschetz_q`` computes the same [t^n] coefficient over Z.
    """
    if trunc < aut.torsion:
        raise ValueError("truncation order must be at least the torsion order")
    psi = aut.matrix.transpose()
    sums = _character_order_sums(aut)
    total = TruncatedBiSeries.zero(trunc)
    for w in sorted(sums):
        sigma = sums[w]
        if sigma == 0:
            continue
        total = total + _order_product(psi, w, trunc).scaled(sigma)
    return total


def _order_tops(psi: Matrix, orders, n: int) -> dict[int, LaurentPoly]:
    """w -> q^(2n) [t^n] prod_{v w <= n} F(t^(v w)) for each order w, over Z.

    F(x) = prod_i det(1 - wedge^i(Psi) q^(i-2) x)^((-1)^(i+1)) is
    exp(sum_s D_s x^s / s) with D_s = sum_i (-1)^i E_i(s) q^((i-2) s), so
    G(u) = prod_(v >= 1) F(u^v) has k [u^k] log G = sum_(s | k) (k / s) D_s
    and k G_k = sum_(j=1..k) (j log_j) G_(k-j).  The product for the order
    w is G(t^w).  G_k is a dense list of q^(-2k) .. q^(2k).
    """
    table = _wedge_table(_charpoly(psi.transpose().data), n)  # keyed by h = Psi^T
    logs = [{} for _ in range(n + 1)]  # logs[k]: q exponent -> coefficient of k log_k
    for s in range(1, n + 1):
        for k in range(s, n + 1, s):
            log = logs[k]
            for i, e in enumerate(table[s]):
                exp = (i - 2) * s
                log[exp] = log.get(exp, 0) + (-1) ** i * (k // s) * e
    g = [[1]]
    for k in range(1, n + 1):
        acc = [0] * (4 * k + 1)
        for j in range(1, k + 1):
            prev = g[k - j]
            for exp, a in logs[j].items():
                if a:
                    base = exp + 2 * j
                    for idx, x in enumerate(prev, base):
                        acc[idx] += a * x
        g.append([_exact_quotient(x, k, f"{k} G_{k}") for x in acc])
    tops = {}
    for w in orders:
        if n % w:
            tops[w] = LaurentPoly.zero()
        else:
            k = n // w
            tops[w] = LaurentPoly({2 * (n - k) + idx: x for idx, x in enumerate(g[k])})
    return tops


def _exp_tops(psi: Matrix, orders, n: int) -> dict[int, Fraction]:
    """w -> [t^n] prod_{v >= 1} exp(sum_{s >= 1} det(1 - Psi^s)/s t^(v w s)).

    The recurrence of ``_order_tops`` at q = 1, on its own inputs: H(u) with
    k [u^k] log H = sum_(s | k) (k / s) det(1 - Psi^s), the determinants
    taken of matrix powers, and k H_k = sum_j (j log_j) H_(k-j).  The
    product for the order w is H(t^w).
    """
    dets = [0]
    one = power = identity(4)
    for _ in range(n):
        power = power @ psi
        dets.append(exact_det(one - power))
    logs = [0] * (n + 1)
    for s in range(1, n + 1):
        for k in range(s, n + 1, s):
            logs[k] += (k // s) * dets[s]
    h = [1]
    for k in range(1, n + 1):
        acc = sum(logs[j] * h[k - j] for j in range(1, k + 1))
        h.append(_exact_quotient(acc, k, f"{k} H_{k}"))
    return {w: Fraction(0 if n % w else h[n // w]) for w in orders}


class _Profile(NamedTuple):
    """What lefschetz_q and corollary_value need of (h, n), whatever b is."""

    characters: dict  # order w -> residues of the fixed characters of order w
    classes: tuple  # per divisor g of n: (the k with gcd(k, n) = g, moebius(n / g))
    l_poly: LaurentPoly  # det(1 - q Psi), integer coefficients
    tops: dict  # order w -> q^(2n) [t^n] of the order-w product
    exp_tops: dict  # order w -> [t^n] of the order-w exponential form


@lru_cache(maxsize=16)
def _profile(h_data, n: int) -> _Profile:
    h = Matrix(h_data)
    psi = h.transpose()
    characters: dict[int, list] = {}
    for chi in fixed_characters(h, n):
        characters.setdefault(chi.order, []).append(chi.residues)
    orders = sorted(characters)
    classes: dict[int, list] = {}
    for k in range(n):
        classes.setdefault(gcd(k, n), []).append(k)
    return _Profile(
        {w: tuple(characters[w]) for w in orders},
        tuple((tuple(ks), moebius(n // g)) for g, ks in sorted(classes.items())),
        LaurentPoly(dict(enumerate(_charpoly(h_data)))),
        _order_tops(psi, orders, n),
        _exp_tops(psi, orders, n),
    )


def _order_sums(aut: TorusAutomorphism, profile: _Profile) -> dict[int, int]:
    """sigma_w, the sum of chi(b) over the fixed chi of order w, as integers.

    Raises ValueError("Galois-stability violated") when the pairings of the
    characters of one order with b are not equidistributed on a Galois
    class, i.e. when sigma_w would not be rational.
    """
    n = aut.torsion
    b0, b1, b2, b3 = aut.translation
    sums = {}
    for w, residues in profile.characters.items():
        counts = [0] * n
        for c0, c1, c2, c3 in residues:
            counts[(c0 * b0 + c1 * b1 + c2 * b2 + c3 * b3) % n] += 1
        sigma = 0
        for ks, mu in profile.classes:
            count = counts[ks[0]]
            if any(counts[k] != count for k in ks):
                raise ValueError(
                    f"Galois-stability violated: characters of order {w} pair with b "
                    f"unevenly on the residues {list(ks)} mod {n}"
                )
            sigma += count * mu
        sums[w] = sigma
    return sums


def lefschetz_q(aut: TorusAutomorphism) -> LefschetzResult:
    """Exact q-refined Lefschetz number of the induced Kummer automorphism.

    Raises ValueError("division identity violated") when the character sum
    is not divisible by L(psi, q), and ValueError("Galois-stability
    violated") when a character sum fails to be rational.  Both are
    unreachable for genuine torus automorphisms.
    """
    n = aut.torsion
    profile = _profile(aut.matrix.data, n)
    numerator = LaurentPoly.zero()
    for w, sigma in _order_sums(aut, profile).items():
        if sigma:
            numerator = numerator + profile.tops[w] * sigma
    if numerator.is_zero:
        return LefschetzResult(LaurentPoly.zero(), 0)
    if numerator.min_exp < 0:
        raise ValueError(
            "division identity violated: q-valuation of the t^n coefficient "
            f"is {numerator.min_exp - 2 * n} < {-2 * n}"
        )
    quotient, remainder = laurent_divmod(numerator, profile.l_poly)
    if not remainder.is_zero:
        raise ValueError("division identity violated: nonzero remainder")
    poly = LaurentPoly({e: Fraction(c) for e, c in quotient.coeffs.items()})
    return LefschetzResult(poly, sum(quotient.coeffs.values()))


def corollary_value(aut: TorusAutomorphism) -> Fraction:
    """The q-free exponential form of the character sum, at t^n.

    Returns the coefficient of t^n in

        sum_chi chi(b) prod_{v >= 1} exp(sum_{s >= 1} det(1 - Psi^s)/s
                                          t^(v |chi| s)),

    which equals L(psi) * L(psi^[n]).
    """
    profile = _profile(aut.matrix.data, aut.torsion)
    sums = _order_sums(aut, profile)
    return sum((sigma * profile.exp_tops[w] for w, sigma in sums.items()), Fraction(0))


# ---------------------------------------------------------------------------
# catalog of torus automorphisms on the Kummer fourfold (n = 3)

_KUMMER_N = 3

# multiplication by a primitive cube root of unity on the lattice Z + zeta6 Z
_ROT_ZETA3 = Matrix([[-1, -1], [1, 0]])
# multiplication by i on the lattice Z + iZ
_ROT_I = Matrix([[0, -1], [1, 0]])
# companion matrix of 1 + x + x^2 + x^3 + x^4: cyclic shift of the four
# generators (1,1), (z5, z5^2), (z5^2, z5^4), (z5^3, z5) with h = (z5, z5^2)
_COMPANION_5 = Matrix(
    [
        [0, 0, 0, -1],
        [1, 0, 0, -1],
        [0, 1, 0, -1],
        [0, 0, 1, -1],
    ]
)


def _product_torus_matrix(kind: int) -> Matrix:
    if kind in (1, 2, 3):
        return block_diag(identity(2), -identity(2))
    if kind == 4:
        return block_diag(_ROT_I, _ROT_I)
    if kind in (5, 6):
        return block_diag(identity(2), _ROT_ZETA3)
    if kind == 7:
        return block_diag(_ROT_ZETA3, _ROT_ZETA3)
    raise ValueError(f"no product torus for type {kind}")


# quotient torus bases, as columns over the product torus lattice:
#   type 2: basis (w, l2, l1', l2') with w = (l1 + l1')/2
#   type 3: basis (w1, w2, l1', l2') with w1 = (l1 + l1')/2, w2 = (l2 + l2')/2
#   type 6: basis (g, l2, 1, zeta6) with g = (l1 + 1 + zeta6)/3
_QUOTIENT_BASES = {
    2: Matrix(
        [
            [Fraction(1, 2), 0, 0, 0],
            [0, 1, 0, 0],
            [Fraction(1, 2), 0, 1, 0],
            [0, 0, 0, 1],
        ]
    ),
    3: Matrix(
        [
            [Fraction(1, 2), 0, 0, 0],
            [0, Fraction(1, 2), 0, 0],
            [Fraction(1, 2), 0, 1, 0],
            [0, Fraction(1, 2), 0, 1],
        ]
    ),
    6: Matrix(
        [
            [Fraction(1, 3), 0, 0, 0],
            [0, 1, 0, 0],
            [Fraction(1, 3), 0, 1, 0],
            [Fraction(1, 3), 0, 0, 1],
        ]
    ),
}


_TYPE_ORDERS = {0: 1, 1: 2, 2: 2, 3: 2, 4: 4, 5: 3, 6: 3, 7: 3, 8: 5}


@lru_cache(maxsize=len(_QUOTIENT_BASES))
def _basis_inverse(kind: int) -> Matrix:
    return exact_inverse(_QUOTIENT_BASES[kind])


@lru_cache(maxsize=len(_TYPE_ORDERS))
def _type_matrix(kind: int) -> Matrix:
    """The matrix of h on the torus lattice of the given catalog type.

    Built once per type; the first use of a type checks that h preserves its
    lattice and has the type's order.
    """
    if kind == 0:
        h = identity(4)
    elif kind == 8:
        h = _COMPANION_5
    else:
        h = _product_torus_matrix(kind)
        if kind in _QUOTIENT_BASES:
            h = _basis_inverse(kind) @ h @ _QUOTIENT_BASES[kind]
            if not h.is_integral:
                raise AssertionError("h does not preserve the quotient torus lattice")
    order = _TYPE_ORDERS[kind]
    if h**order != identity(4):
        raise AssertionError(f"catalog type {kind} matrix does not have order {order}")
    return h


def _residues(kind: int, product_vector) -> tuple[int, int, int, int]:
    """Coordinates mod 3 of a product-lattice third point on the type basis."""
    if kind in _QUOTIENT_BASES:
        product_vector = _basis_inverse(kind).apply(product_vector)
    return tuple(int(x) % _KUMMER_N for x in product_vector)


def _variant_table(kind: int) -> dict[str, tuple[int, tuple[int, int, int, int]]]:
    """variant name -> (sign, translation residues) for each catalog type."""
    z = (0, 0, 0, 0)
    e1 = (1, 0, 0, 0)
    if kind == 0:
        return {"id": (1, z), "t_b": (1, e1), "-id": (-1, z), "-t_b": (-1, e1)}
    if kind in (1, 2, 3):
        u_zero = _residues(kind, (0, 0, 1, 0))
        u_nonzero = _residues(kind, (1, 0, 0, 0))
        return {"h": (1, z), "u=0": (1, u_zero), "u!=0": (1, u_nonzero)}
    if kind == 4:
        return {"h": (1, z), "t_b": (1, e1), "-h": (-1, z), "-h,t_b": (-1, e1)}
    if kind == 5:
        return {
            "h": (1, z),
            "u=0,v in Delta6": (1, (0, 0, 1, 1)),
            "u=0,v notin Delta6": (1, (0, 0, 1, 0)),
            "u!=0,v in Delta6": (1, (1, 0, 1, 1)),
            "u!=0,v notin Delta6": (1, (1, 0, 1, 0)),
            "-h": (-1, z),
            "-h,t_b": (-1, e1),
        }
    if kind == 6:
        return {
            "h": (1, z),
            "t=0,u in Za": (1, _residues(6, (0, 0, 1, 0))),
            "t=0,u notin Za": (1, _residues(6, (0, 1, 0, 0))),
            "t!=0": (1, e1),
            "-h": (-1, z),
            "-h,t_b": (-1, e1),
        }
    if kind == 7:
        return {
            "h": (1, z),
            "b in Delta6xDelta6": (1, (1, 1, 0, 0)),
            "b notin Delta6xDelta6": (1, e1),
            "-h": (-1, z),
            "-h,t_b": (-1, e1),
        }
    if kind == 8:
        return {"h": (1, z), "h,t_b": (1, e1), "-h": (-1, z), "-h,t_b": (-1, e1)}
    raise ValueError(f"unknown catalog type {kind}")


def catalog_variants(kind: int) -> list[str]:
    return list(_variant_table(kind))


def catalog(kind: int, variant: str) -> TorusAutomorphism:
    """A catalog torus automorphism on the Kummer fourfold (n = 3).

    ``kind`` selects the torus and group automorphism h; ``variant`` selects
    the sign of h and the translation class.
    """
    table = _variant_table(kind)
    if variant not in table:
        raise ValueError(
            f"unknown variant {variant!r} for type {kind}; options: {sorted(table)}"
        )
    sign, translation = table[variant]
    h = _type_matrix(kind)
    matrix = h if sign == 1 else -h
    return torus_automorphism(matrix, translation, _KUMMER_N, sign, f"type {kind}: {variant}")


# golden targets: exact integer Lefschetz numbers of every catalog entry
CATALOG_EXPECTED: tuple[tuple[int, str, int], ...] = (
    (0, "id", 108),
    (0, "t_b", 27),
    (0, "-id", 60),
    (0, "-t_b", 60),
    (1, "h", 12),
    (1, "u=0", 12),
    (1, "u!=0", 3),
    (2, "h", 12),
    (2, "u=0", 12),
    (2, "u!=0", 3),
    (3, "h", 12),
    (3, "u=0", 12),
    (3, "u!=0", 3),
    (4, "h", 16),
    (4, "t_b", 16),
    (4, "-h", 16),
    (4, "-h,t_b", 16),
    (5, "h", 27),
    (5, "u=0,v in Delta6", 27),
    (5, "u=0,v notin Delta6", 0),
    (5, "u!=0,v in Delta6", 0),
    (5, "u!=0,v notin Delta6", 0),
    (5, "-h", 9),
    (5, "-h,t_b", 9),
    (6, "h", 9),
    (6, "t=0,u in Za", 9),
    (6, "t=0,u notin Za", 0),
    (6, "t!=0", 0),
    (6, "-h", 9),
    (6, "-h,t_b", 9),
    (7, "h", 36),
    (7, "b in Delta6xDelta6", 36),
    (7, "b notin Delta6xDelta6", 27),
    (7, "-h", 12),
    (7, "-h,t_b", 12),
    (8, "h", 13),
    (8, "h,t_b", 13),
    (8, "-h", 5),
    (8, "-h,t_b", 5),
)


@dataclass(frozen=True)
class CatalogEntryReport:
    kind: int
    variant: str
    expected: int
    value: int
    corollary_ok: bool

    @property
    def passed(self) -> bool:
        return self.value == self.expected and self.corollary_ok


@dataclass(frozen=True)
class CatalogReport:
    entries: tuple[CatalogEntryReport, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def run_catalog_table() -> CatalogReport:
    """Compute every catalog entry and compare with the expected values.

    Each entry also cross-checks the q-free exponential form:
    corollary_value = L(psi, 1) * L(psi^[n], 1), valid even when both
    sides vanish.
    """
    entries = []
    for kind, variant, expected in CATALOG_EXPECTED:
        aut = catalog(kind, variant)
        result = lefschetz_q(aut)
        l_one = lefschetz_poly_surface(aut.matrix).evaluate_one()
        cor_ok = corollary_value(aut) == Fraction(l_one) * result.value
        entries.append(CatalogEntryReport(kind, variant, expected, result.value, cor_ok))
    return CatalogReport(tuple(entries))
