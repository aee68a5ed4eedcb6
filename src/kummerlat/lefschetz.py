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
  grouped by order: sigma_w, the sum of chi(b) over the fixed chi of order
  w, comes from counting subgroups, with no character listed.  One Smith
  form U (1 - H) V = diag(d_1, .., d_4) describes the fixed characters:
  those killed by e (for e | n) form a group A[e] of order
  prod_i gcd(d_i, e), and the chi(b) over A[e] sum to |A[e]| when b is
  orthogonal to A[e], that is when gcd(d_i, e) divides (U b)_i for every i,
  and to 0 otherwise; as that says only whether b is orthogonal to A[e],
  every U of such a form gives the same sums.  Moebius inversion over
  the divisors of w gives
  sigma_w = sum_(e | w) moebius(w / e) |A[e]| [b orthogonal to A[e]], an
  integer by construction.
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
* L(psi, q) = c(q) has constant term c_0 = 1, so the division by it is
  synthetic division over Z from the low end, with no division of
  coefficients (never an evaluation at q = 1, where L(psi, q) often
  vanishes).

Three runtime guards remain: every division in Newton's identities and in
the exponential recurrences must be exact ("integrality violated"), the
division by L(psi, q) must leave no remainder ("division identity
violated"), and for det h = 1 the quotient must be palindromic ("Poincaré
duality violated").  The quotient has integer coefficients and its value
at q = 1 is the integer Lefschetz number; the q-free corollary is an
integer too.

c = det(1 - x Psi) comes from the traces tr h^k (k = 1..4) by Newton's
identities, the same ``_elementary`` that fills the power-sum table.  No
series depends on n: G(u) depends on c alone, and its q = 1 counterpart
H(u) of ``corollary_value``, taken from det(1 - Psi^s) of matrix powers,
on h alone.  So the engine keeps one record per matrix (``_Matrix``) in
one bounded memo: c, the Smith form of 1 - H, the H series of h, the G
series of c with the power sums and power-sum table rows it was built
from, and the subgroup orders of the last n, with references to G_(n/w)
and H_(n/w).  The divisors of n and their Moebius table depend on n
alone, and one bounded memo per n serves every record.  The series grow
on demand, so a sweep over n computes each power sum, table row, G_k and
H_k once, and the translation variants of a matrix share its record.
Records with the same c share one G series through a weak map, so a G
series lives as long as some record holds it.  The direct cyclotomic
evaluation of the character sum over the listed fixed characters, the
factor-by-factor product of the wedge series, the Faddeev-LeVerrier
recurrence for det(1 - x M) and the equivariant Goettsche-Soergel sum
over partitions are kept with the tests (``tests/lefschetz_reference.py``)
as references.

The catalog covers the torus automorphisms whose action on second cohomology
has prime order, together with their sign flips and translation variants,
all on the Kummer fourfold (n = 3).  It is two tables of data.  ``_TYPES``
gives each type's h on the product torus lattice, its order and, for the
quotient tori of types 2, 3 and 6, an integer basis den * B over that
lattice.  ``_CATALOG`` has one row per entry: type, variant, sign of h,
translation residues mod 3 on the type's basis and expected Lefschetz
number.  The matrix of h on a quotient basis comes from one integer solve,
on the first use of the type, which also checks the order of h; the
residues are data, and the tests solve for them again.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from weakref import WeakValueDictionary

from .matrix import (
    Matrix,
    _Frozen,
    _is_int,
    block_diag,
    exact_det,
    identity,
    moebius,
    smith_normal_form,
    solve,
)

# Largest accepted torsion order n.  The character sums cost O(tau(n)^2)
# integer steps at any n; the first growth of a G series to n costs O(n^3),
# and a sweep over n pays it once per c, since later n extend the series.
# The bound is MAX_CONDUCTOR of tests/cyclotomic_reference.py, so the
# reference path can check every accepted n.
MAX_TORSION = 60


def _check_torsion(n) -> None:
    if not _is_int(n) or not 1 <= n <= MAX_TORSION:
        raise ValueError(f"torsion order n must be an integer in 1..{MAX_TORSION}, got {n!r}")


class TorusAutomorphism(_Frozen):
    """Lattice data of a torus automorphism psi = t_b compose h.

    ``matrix`` is the action of h on the rank four torus lattice in a fixed
    basis; ``translation`` holds the coordinates of the n-torsion point b
    (residues mod n).

    Any unimodular h is accepted, det h = -1 included, since the tests run
    the engine on random unimodular matrices.  An h with det -1 reverses
    the orientation of the real torus, so psi is not holomorphic and
    psi^[n] is not the natural automorphism the formula is about; its
    polynomial is computed all the same and is in general not palindromic.
    """

    __slots__ = ("matrix", "translation", "torsion")

    def __init__(self, matrix: Matrix, translation: tuple[int, int, int, int], torsion: int):
        _check_torsion(torsion)
        if matrix.shape != (4, 4):
            raise ValueError("torus automorphism needs an integral 4x4 matrix")
        if abs(_matrix(matrix.data).c[4]) != 1:  # c_4 = det Psi = det h
            raise ValueError("torus automorphism matrix must be unimodular")
        if len(translation) != 4:
            raise ValueError("translation must have four coordinates")
        if any(not (_is_int(x) and 0 <= x < torsion) for x in translation):
            raise ValueError("translation coordinates must be residues mod n")
        super().__init__(matrix, translation, torsion)


def torus_automorphism(matrix: Matrix, translation, torsion: int) -> TorusAutomorphism:
    _check_torsion(torsion)
    if not all(map(_is_int, translation)):
        raise ValueError(f"translation coordinates must be integers, got {list(translation)!r}")
    b = tuple(x % torsion for x in translation)
    return TorusAutomorphism(matrix, b, torsion)


class LaurentPoly:
    """Output type with no arithmetic: ``coeffs`` maps integer exponents of q to nonzero coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): v for e, v in (coeffs or {}).items() if v != 0}

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def evaluate_one(self):
        """Value at q = 1."""
        return sum(self.coeffs.values())

    def __repr__(self):
        return " + ".join(f"({v})*q^{e}" for e, v in sorted(self.coeffs.items())) or "LaurentPoly(0)"


class LefschetzResult(_Frozen):
    """``polynomial`` has integer coefficients, q^0 .. q^(4n-4); ``value`` is their sum."""

    __slots__ = ("polynomial", "value")


def _charpoly(h_data) -> tuple[int, ...]:
    """c = det(1 - x Psi) for Psi the transpose of the d x d matrix with rows h_data.

    c_k = (-1)^k e_k(lambda) for the eigenvalues lambda of Psi, and
    ``_elementary`` takes the e_k from the power sums tr h^k (k = 1..d),
    which are transpose invariant, so the powers are those of h itself,
    once per matrix.
    """
    d = len(h_data)
    h, power = Matrix._of_ints(h_data, d), identity(d)
    traces = []
    for _ in range(d):
        power = power @ h
        traces.append(sum(row[i] for i, row in enumerate(power.data)))
    return tuple((-1) ** k * e for k, e in enumerate(_elementary(traces)))


def lefschetz_poly_surface(h: Matrix) -> LaurentPoly:
    """L(psi, q) = det(1 - q Psi) with Psi the transpose of the 4x4 matrix h.

    Equals the alternating sum of exterior power traces weighted by q^k.
    Any other shape raises ValueError.
    """
    if h.shape != (4, 4):
        raise ValueError("torus automorphism needs an integral 4x4 matrix")
    return LaurentPoly(dict(enumerate(_matrix(h.data).c)))


def _exact_quotient(a: int, k: int, name: str) -> int:
    """a / k for the term k name_k of a recurrence; ValueError when it is not exact."""
    quotient, remainder = divmod(a, k)
    if remainder:
        raise ValueError(f"integrality violated: {k} {name}_{k} = {a}/{k}")
    return quotient


def _power_sums(c, p: list[int], top: int) -> None:
    """Extend p = [p_0, .., p_m] in place to p_0 .. p_top, p_k = tr Psi^k.

    The p_k come from c = det(1 - x Psi) by Newton's identities
    k c_k + sum_(j=1..k) p_j c_(k-j) = 0, with no division, since c_0 = 1;
    p starts from p_0, the size of Psi.
    """
    d = len(c) - 1
    for k in range(len(p), top + 1):
        acc = k * c[k] if k <= d else 0
        for j in range(max(1, k - d), k):
            acc += p[j] * c[k - j]
        p.append(-acc)


def _elementary(sums) -> list[int]:
    """e_0 .. e_d of the numbers whose power sums are sums = (p_1, .., p_d).

    Newton's identities i e_i = sum_(j=1..i) (-1)^(j-1) p_j e_(i-j); every
    division by i must be exact, else ValueError("integrality violated").
    """
    e = [1]
    for i in range(1, len(sums) + 1):
        acc = 0
        for j in range(i, 0, -1):  # the alternating sum, folded from its last term
            acc = sums[j - 1] * e[i - j] - acc
        e.append(_exact_quotient(acc, i, "e"))
    return e


def _wedge_row(c, p: list[int], s: int) -> tuple[int, ...]:
    """Row s of the power-sum table: E_i(s) = tr wedge^i(Psi^s) for i = 0..d.

    E_0(s), .., E_d(s) are the elementary symmetric functions of the
    eigenvalues of Psi^s, whose power sums are p_s, p_2s, .., p_ds; the
    power sums p of c are extended in place to p_ds first.
    """
    d = len(c) - 1
    _power_sums(c, p, d * s)
    return tuple(_elementary([p[j * s] for j in range(1, d + 1)]))


class _OrderSeries:
    """G(u) = prod_(v >= 1) F(u^v) for one c = det(1 - x Psi), grown on demand.

    F(x) = prod_i det(1 - wedge^i(Psi) q^(i-2) x)^((-1)^(i+1)) is
    exp(sum_s D_s x^s / s) with D_s = sum_i (-1)^i E_i(s) q^((i-2) s), so
    k [u^k] log G = sum_(s | k) (k / s) D_s and k G_k = sum_(j=1..k)
    (j log_j) G_(k-j).  ``g[k]`` is G_k as a dense int list of q^(-2k) ..
    q^(2k); ``logs[k]`` holds the nonzero terms of k log_k as (index, a)
    pairs, the index counted from q^(-2k); ``rows[s]`` is row s of the
    power-sum table and ``p`` holds the power sums p_0 .. p_(dN) of c it
    was built from.  None of these depends on n, so one series serves
    every n: ``grow(n)`` computes the power sums p_(dN+1) .. p_(dn), the
    rows N+1 .. n and the terms k = N+1 .. n only.
    """

    __slots__ = ("c", "p", "rows", "logs", "g", "__weakref__")

    def __init__(self, c):
        self.c, self.p = c, [len(c) - 1]
        self.rows, self.logs, self.g = [_wedge_row(c, self.p, 0)], [()], [[1]]

    def grow(self, n: int) -> None:
        top = len(self.g) - 1
        if n <= top:
            return
        # nothing is committed until every division is exact
        p, rows = self.p[:], self.rows[:]
        rows += [_wedge_row(self.c, p, s) for s in range(top + 1, n + 1)]
        new_logs = [{} for _ in range(n - top)]
        for s in range(1, n + 1):
            for k in range((top // s + 1) * s, n + 1, s):
                log = new_logs[k - top - 1]
                for i, e in enumerate(rows[s]):
                    index = (i - 2) * s + 2 * k
                    log[index] = log.get(index, 0) + (-1) ** i * (k // s) * e
        logs = self.logs + [tuple((i, a) for i, a in log.items() if a) for log in new_logs]
        g = self.g[:]
        for k in range(top + 1, n + 1):
            acc = [0] * (4 * k + 1)
            for j in range(1, k + 1):
                prev = g[k - j]
                for base, a in logs[j]:
                    for idx, x in enumerate(prev, base):
                        acc[idx] += a * x
            g.append([_exact_quotient(x, k, "G") for x in acc])
        self.p, self.rows, self.logs, self.g = p, rows, logs, g


class _ExpSeries:
    """H(u) with k [u^k] log H = sum_(s | k) (k / s) det(1 - Psi^s), grown on demand.

    The recurrence of ``_OrderSeries`` at q = 1, on its own inputs: the
    determinants are taken of matrix powers, not read off the power-sum
    table, so ``corollary_holds`` checks one against the other.  ``rows``
    are the int rows of h or of Psi = h^T: det(1 - Psi^s) is transpose
    invariant.  ``power`` is Psi^N and ``h[k]`` is H_k for k = 0 .. N.
    """

    __slots__ = ("psi", "power", "dets", "logs", "h")

    def __init__(self, rows):
        self.psi, self.power = Matrix._of_ints(rows, 4), identity(4)
        self.dets, self.logs, self.h = [0], [0], [1]

    def grow(self, n: int) -> None:
        top = len(self.h) - 1
        if n <= top:
            return
        power, dets = self.power, self.dets[:]
        for _ in range(top, n):
            power = power @ self.psi
            dets.append(exact_det(identity(4) - power))
        logs = self.logs + [sum((k // s) * dets[s] for s in range(1, k + 1) if k % s == 0)
                            for k in range(top + 1, n + 1)]
        h = self.h[:]
        for k in range(top + 1, n + 1):
            acc = sum(logs[j] * h[k - j] for j in range(1, k + 1))
            h.append(_exact_quotient(acc, k, "H"))
        self.power, self.dets, self.logs, self.h = power, dets, logs, h


# c -> the G series of c, while some record holds it
_ORDER_SERIES: WeakValueDictionary = WeakValueDictionary()


@lru_cache(maxsize=MAX_TORSION)
def _divisor_table(n: int) -> tuple[tuple[int, ...], tuple]:
    """The divisors of n, and per divisor w of n its Moebius terms.

    The terms of w are (index of e, moebius(w / e)) for the divisors e of w,
    those with moebius(w / e) = 0 left out.  Both depend on n alone, so
    every record reads the same tables; one entry per accepted n.
    """
    divisors = tuple(e for e in range(1, n + 1) if n % e == 0)
    mu = {e: moebius(e) for e in divisors}  # w / e divides n too
    return divisors, tuple((w, tuple((i, mu[w // e]) for i, e in enumerate(divisors)
                                     if w % e == 0 and mu[w // e])) for w in divisors)


class _Matrix:
    """What lefschetz_q and corollary_value keep of one 4x4 matrix h, whatever b is.

    ``c`` holds c_0 .. c_4 of det(1 - q Psi) = L(psi, q), with c_0 = 1;
    ``u_rows`` and ``diagonal`` are U and (d_1, .., d_4) of a Smith form
    U (1 - H) V = diag(d_1, .., d_4), taken as U = V1^T from the Smith
    form D = U1 (1 - Psi) V1 of 1 - Psi = (1 - H)^T, whose transpose is
    V1^T (1 - H) U1^T = D; ``exp_series`` is the H series of h and
    ``order_series`` the G series of c, shared with every record of the
    same c.  ``table(n)`` grows both to n and sets the tables of n, kept
    until another n is asked for (``n`` names the n they are of):
    ``subgroups`` per divisor e of n: (|A[e]|, (gcd(d_i, e))_i), A[e] killed by e;
    ``moebius`` per divisor w of n: (w, ((index of e, moebius(w / e)) for e | w)),
    shared by every record through ``_divisor_table``;
    ``tops`` divisor w of n -> (offset, G_(n/w)): q^(2n) [t^n] of the order-w product;
    ``exp_tops`` divisor w of n -> H_(n/w): [t^n] of the order-w exponential form.
    """

    __slots__ = ("c", "u_rows", "diagonal", "order_series", "exp_series",
                 "n", "subgroups", "moebius", "tops", "exp_tops")

    def __init__(self, h_data):
        self.c = c = _charpoly(h_data)
        d, v = smith_normal_form(identity(4) - Matrix._of_ints(tuple(zip(*h_data)), 4))
        self.u_rows, self.diagonal = tuple(zip(*v.data)), tuple(d.data[i][i] for i in range(4))
        self.order_series = _ORDER_SERIES.get(c) or _ORDER_SERIES.setdefault(c, _OrderSeries(c))
        self.exp_series = _ExpSeries(h_data)
        self.n = 0

    def table(self, n: int) -> _Matrix:
        g, h = self.order_series, self.exp_series
        g.grow(n)
        h.grow(n)
        divisors, self.moebius = _divisor_table(n)
        gcds = [tuple(gcd(x, e) for x in self.diagonal) for e in divisors]
        self.subgroups = tuple((prod(row), row) for row in gcds)
        # the product for the order w is G(t^w), so q^(2n) [t^n] of it is
        # q^(2n) G_(n/w), from the offset 2 (n - n/w); H(t^w) gives H_(n/w)
        self.tops = {w: (2 * (n - n // w), g.g[n // w]) for w in divisors}
        self.exp_tops = {w: h.h[n // w] for w in divisors}
        self.n = n
        return self


# One record per matrix.  It holds 32, so that the 18 catalog matrices +-h
# of a sweep over n fit: an LRU memo cycled through more keys than it holds
# misses on every lookup.
_matrix = lru_cache(maxsize=32)(_Matrix)


def _order_sums(aut: TorusAutomorphism) -> tuple[_Matrix, dict[int, int]]:
    """The record of aut's matrix, holding the tables of n, and sigma_w for every w | n.

    sigma_w is the sum of chi(b) over the fixed chi of order w.  The chi(b)
    over A[e] sum to |A[e]| when gcd(d_i, e) divides (U b)_i for every i
    and to 0 otherwise; Moebius inversion over the divisors of w separates
    the orders.  The tables are set only when the record holds another n,
    so a lookup of current tables is one memo hit and one comparison.
    """
    record = _matrix(aut.matrix.data)
    if record.n != aut.torsion:
        record.table(aut.torsion)
    b0, b1, b2, b3 = aut.translation
    x0, x1, x2, x3 = [u0 * b0 + u1 * b1 + u2 * b2 + u3 * b3 for u0, u1, u2, u3 in record.u_rows]
    subgroup_sums = [0 if x0 % g0 or x1 % g1 or x2 % g2 or x3 % g3 else size
                     for size, (g0, g1, g2, g3) in record.subgroups]
    return record, {w: sum([mu * subgroup_sums[i] for i, mu in terms])
                    for w, terms in record.moebius}


def lefschetz_q(aut: TorusAutomorphism) -> LefschetzResult:
    """Exact q-refined Lefschetz number of the induced Kummer automorphism.

    The numerator q^(2n) [t^n] is a dense int list over q^0 .. q^(4n); it is
    divided by c = L(psi, q) from the low end, exactly since c_0 = 1, and
    the last four coefficients, the remainder, must vanish.  Raises
    ValueError("division identity violated") when they do not, or when a
    term lies below q^0.  For det h = c_4 = 1 the quotient over
    q^0 .. q^(4n-4) must be a palindrome (Poincare duality), else
    ValueError("Poincaré duality violated"); det h = -1 is not checked.
    None of these is reachable for genuine torus automorphisms.
    """
    n = aut.torsion
    record, sums = _order_sums(aut)
    numerator = [0] * (4 * n + 1)
    for w, sigma in sums.items():
        if sigma:
            offset, g = record.tops[w]
            if offset < 0:
                raise ValueError(
                    "division identity violated: q-valuation of the t^n coefficient "
                    f"is {offset - 2 * n} < {-2 * n}"
                )
            for idx, x in enumerate(g, offset):
                numerator[idx] += sigma * x
    _, c1, c2, c3, c4 = record.c
    for k in range(4 * n - 3):
        x = numerator[k]
        if x:
            numerator[k + 1] -= c1 * x
            numerator[k + 2] -= c2 * x
            numerator[k + 3] -= c3 * x
            numerator[k + 4] -= c4 * x
    quotient = numerator[:-4]
    if any(numerator[-4:]):
        raise ValueError("division identity violated: nonzero remainder")
    if c4 == 1 and quotient != quotient[::-1]:
        raise ValueError("Poincaré duality violated")
    return LefschetzResult(LaurentPoly(dict(enumerate(quotient))), sum(quotient))


def corollary_holds(aut: TorusAutomorphism, result: LefschetzResult) -> bool:
    """The q-free cross-check: corollary_value = L(psi, 1) * L(psi^[n], 1).

    ``result`` is ``lefschetz_q(aut)``; the identity holds even when both
    sides vanish.
    """
    return corollary_value(aut) == lefschetz_poly_surface(aut.matrix).evaluate_one() * result.value


def corollary_value(aut: TorusAutomorphism) -> int:
    """The q-free exponential form of the character sum, at t^n.

    Returns the coefficient of t^n in

        sum_chi chi(b) prod_{v >= 1} exp(sum_{s >= 1} det(1 - Psi^s)/s
                                          t^(v |chi| s)),

    which equals L(psi) * L(psi^[n]).
    """
    record, sums = _order_sums(aut)
    return sum(sigma * record.exp_tops[w] for w, sigma in sums.items() if sigma)


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

# type -> (h on the product torus lattice, order of h, den * B or None).  The
# quotient tori of types 2, 3 and 6 have the basis B, given by its columns
# over the product torus lattice and scaled by den to integers:
#   type 2: B = (w, l2, l1', l2') with w = (l1 + l1')/2, den = 2
#   type 3: B = (w1, w2, l1', l2') with w1 = (l1 + l1')/2, w2 = (l2 + l2')/2, den = 2
#   type 6: B = (g, l2, 1, zeta6) with g = (l1 + 1 + zeta6)/3, den = 3
_TYPES = {
    0: (identity(4), 1, None),
    1: (block_diag(identity(2), -identity(2)), 2, None),
    2: (block_diag(identity(2), -identity(2)), 2,
        Matrix([[1, 0, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 2]])),
    3: (block_diag(identity(2), -identity(2)), 2,
        Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 2, 0], [0, 1, 0, 2]])),
    4: (block_diag(_ROT_I, _ROT_I), 4, None),
    5: (block_diag(identity(2), _ROT_ZETA3), 3, None),
    6: (block_diag(identity(2), _ROT_ZETA3), 3,
        Matrix([[1, 0, 0, 0], [0, 3, 0, 0], [1, 0, 3, 0], [1, 0, 0, 3]])),
    7: (block_diag(_ROT_ZETA3, _ROT_ZETA3), 3, None),
    8: (_COMPANION_5, 5, None),
}

CATALOG_TYPES: tuple[int, ...] = tuple(_TYPES)

# One row per catalog entry: (type, variant, sign of h, translation residues
# mod 3 on the type's basis, expected Lefschetz number), in the order of the
# table.  A variant named by a third point of the product torus lattice has
# that point's coordinates on the type's basis: the point itself, except for
# "u!=0" of types 2 and 3, where l1 = 2w - l1' gives (2, 0, 2, 0).  The rows
# are literals, so the compiler folds the table into one constant.
_CATALOG = (
    (0, "id", 1, (0, 0, 0, 0), 108),
    (0, "t_b", 1, (1, 0, 0, 0), 27),
    (0, "-id", -1, (0, 0, 0, 0), 60),
    (0, "-t_b", -1, (1, 0, 0, 0), 60),
    (1, "h", 1, (0, 0, 0, 0), 12),
    (1, "u=0", 1, (0, 0, 1, 0), 12),
    (1, "u!=0", 1, (1, 0, 0, 0), 3),
    (2, "h", 1, (0, 0, 0, 0), 12),
    (2, "u=0", 1, (0, 0, 1, 0), 12),
    (2, "u!=0", 1, (2, 0, 2, 0), 3),  # l1 = 2w - l1', not (1, 0, 0, 0)
    (3, "h", 1, (0, 0, 0, 0), 12),
    (3, "u=0", 1, (0, 0, 1, 0), 12),
    (3, "u!=0", 1, (2, 0, 2, 0), 3),  # l1 = 2w1 - l1', not (1, 0, 0, 0)
    (4, "h", 1, (0, 0, 0, 0), 16),
    (4, "t_b", 1, (1, 0, 0, 0), 16),
    (4, "-h", -1, (0, 0, 0, 0), 16),
    (4, "-h,t_b", -1, (1, 0, 0, 0), 16),
    (5, "h", 1, (0, 0, 0, 0), 27),
    (5, "u=0,v in Delta6", 1, (0, 0, 1, 1), 27),
    (5, "u=0,v notin Delta6", 1, (0, 0, 1, 0), 0),
    (5, "u!=0,v in Delta6", 1, (1, 0, 1, 1), 0),
    (5, "u!=0,v notin Delta6", 1, (1, 0, 1, 0), 0),
    (5, "-h", -1, (0, 0, 0, 0), 9),
    (5, "-h,t_b", -1, (1, 0, 0, 0), 9),
    (6, "h", 1, (0, 0, 0, 0), 9),
    (6, "t=0,u in Za", 1, (0, 0, 1, 0), 9),
    (6, "t=0,u notin Za", 1, (0, 1, 0, 0), 0),
    (6, "t!=0", 1, (1, 0, 0, 0), 0),
    (6, "-h", -1, (0, 0, 0, 0), 9),
    (6, "-h,t_b", -1, (1, 0, 0, 0), 9),
    (7, "h", 1, (0, 0, 0, 0), 36),
    (7, "b in Delta6xDelta6", 1, (1, 1, 0, 0), 36),
    (7, "b notin Delta6xDelta6", 1, (1, 0, 0, 0), 27),
    (7, "-h", -1, (0, 0, 0, 0), 12),
    (7, "-h,t_b", -1, (1, 0, 0, 0), 12),
    (8, "h", 1, (0, 0, 0, 0), 13),
    (8, "h,t_b", 1, (1, 0, 0, 0), 13),
    (8, "-h", -1, (0, 0, 0, 0), 5),
    (8, "-h,t_b", -1, (1, 0, 0, 0), 5),
)

# golden targets: exact integer Lefschetz numbers of every catalog entry
CATALOG_EXPECTED: tuple[tuple[int, str, int], ...] = tuple(
    (kind, variant, expected) for kind, variant, _, _, expected in _CATALOG
)

# (type, variant) -> (sign, translation residues)
_ENTRIES = {(kind, variant): (sign, b) for kind, variant, sign, b, _ in _CATALOG}


@lru_cache(maxsize=len(_TYPES))
def _type_matrix(kind: int) -> Matrix:
    """The matrix of h on the torus lattice of the given catalog type.

    Built once per type; the first use of a type checks that h preserves its
    lattice (the solve on a quotient basis is integral; den cancels) and has
    the type's order.
    """
    h, order, basis = _TYPES[kind]
    if basis is not None:
        h = solve(basis, h @ basis, "h does not preserve the quotient torus lattice")
    if h**order != identity(4):
        raise AssertionError(f"catalog type {kind} matrix does not have order {order}")
    return h


def catalog_variants(kind: int) -> list[str]:
    variants = [variant for k, variant in _ENTRIES if k == kind]
    if not variants:
        raise ValueError(f"unknown catalog type {kind}")
    return variants


def catalog(kind: int, variant: str) -> TorusAutomorphism:
    """A catalog torus automorphism on the Kummer fourfold (n = 3).

    ``kind`` selects the torus and group automorphism h; ``variant`` selects
    the sign of h and the translation class.
    """
    entry = _ENTRIES.get((kind, variant))
    if entry is None:
        options = sorted(catalog_variants(kind))
        raise ValueError(f"unknown variant {variant!r} for type {kind}; options: {options}")
    sign, translation = entry
    h = _type_matrix(kind)
    matrix = h if sign == 1 else -h
    return torus_automorphism(matrix, translation, _KUMMER_N)


class CatalogEntryReport(_Frozen):
    __slots__ = ("kind", "variant", "expected", "value", "corollary_ok")

    @property
    def passed(self) -> bool:
        return self.value == self.expected and self.corollary_ok


class CatalogReport(_Frozen):
    __slots__ = ("entries",)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def run_catalog_table() -> CatalogReport:
    """Compute every catalog entry and compare with the expected values.

    Each entry also cross-checks the q-free exponential form
    (``corollary_holds``).
    """
    entries = []
    for kind, variant, expected in CATALOG_EXPECTED:
        aut = catalog(kind, variant)
        result = lefschetz_q(aut)
        entries.append(CatalogEntryReport(kind, variant, expected, result.value,
                                          corollary_holds(aut, result)))
    return CatalogReport(tuple(entries))
