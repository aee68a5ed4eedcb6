"""Reference path for the Lefschetz engine, used by the tests alone.

It lists the h-fixed characters of (Z/n)^4 one by one (an n^4 scan), sums
chi(b) as cyclotomic numbers, and multiplies the wedge series factor by
factor, as truncated power series in t over Laurent polynomials in q
(``LaurentPoly`` here, the exact-scalar ring on the engine's output type),
so it shares no step with the integer engine of ``kummerlat.lefschetz``.  Its
wedge polynomials det(1 - x M) come from the Faddeev-LeVerrier
recurrence, not from Newton's identities on traces as in the engine.

``goettsche_soergel`` is an oracle by another formula: the equivariant sum
over the partitions of n, with brute-force counts of fixed components.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd

from cyclotomic_reference import CyclotomicNumber
from kummerlat import lefschetz
from kummerlat.lefschetz import TorusAutomorphism
from kummerlat.matrix import Matrix, exact_det, identity


class LaurentPoly(lefschetz.LaurentPoly):
    """The Laurent ring in q over exact scalars, on the engine's output type.

    The coefficients use their own arithmetic, so any exact scalars that
    add and multiply with each other and with int (int, Fraction,
    CyclotomicNumber) can be coefficients.  Every operand is checked
    against the engine's class, so engine outputs take part directly and
    compare equal to reference polynomials in both directions.
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coef, exp: int) -> "LaurentPoly":
        return cls({exp: coef})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, lefschetz.LaurentPoly):
            other = LaurentPoly({0: other})
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            s = out.get(e, 0) + v
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, lefschetz.LaurentPoly):
            other = LaurentPoly({0: other})
        return self + LaurentPoly({e: -v for e, v in other.coeffs.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, lefschetz.LaurentPoly):
            out = {}
            for e1, v1 in self.coeffs.items():
                for e2, v2 in other.coeffs.items():
                    e = e1 + e2
                    s = out.get(e, 0) + v1 * v2
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
            res = LaurentPoly.__new__(LaurentPoly)
            res.coeffs = out
            return res
        return LaurentPoly({e: v * other for e, v in self.coeffs.items()})

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly({e + k: v for e, v in self.coeffs.items()})

    def to_fraction_coeffs(self) -> dict[int, Fraction]:
        """Coefficients as Fractions."""
        return {e: Fraction(v) for e, v in self.coeffs.items()}


def scalar_inverse(x):
    if isinstance(x, CyclotomicNumber):
        return x.inverse()
    if isinstance(x, int) and abs(x) == 1:
        return x  # a unit of Z: inversion and division by it stay over Z
    return Fraction(1) / Fraction(x)


def _unit_inverse(p: LaurentPoly) -> LaurentPoly:
    """Inverse of a unit of the Laurent ring over a field: a single monomial."""
    if len(p.coeffs) != 1:
        raise ValueError("Laurent polynomial is not a unit (single monomial)")
    ((e, v),) = p.coeffs.items()
    return LaurentPoly({-e: scalar_inverse(v)})


class TruncatedBiSeries:
    """Power series in t up to a fixed order, with LaurentPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError("too many coefficients for the truncation order")
        cs += [LaurentPoly.zero()] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "TruncatedBiSeries":
        return cls(order, [LaurentPoly.one()])

    @classmethod
    def zero(cls, order: int) -> "TruncatedBiSeries":
        return cls(order, [])

    def coeff(self, k: int) -> LaurentPoly:
        if not 0 <= k <= self.order:
            raise IndexError("t exponent outside truncation order")
        return self.coeffs[k]

    def __add__(self, other: "TruncatedBiSeries") -> "TruncatedBiSeries":
        if self.order != other.order:
            raise ValueError("truncation order mismatch")
        return TruncatedBiSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "TruncatedBiSeries") -> "TruncatedBiSeries":
        if self.order != other.order:
            raise ValueError("truncation order mismatch")
        return TruncatedBiSeries(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "TruncatedBiSeries") -> "TruncatedBiSeries":
        if self.order != other.order:
            raise ValueError("truncation order mismatch")
        n = self.order
        out = [LaurentPoly.zero() for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedBiSeries(n, out)

    def scaled(self, factor) -> "TruncatedBiSeries":
        """Multiply every coefficient by a LaurentPoly or scalar."""
        return TruncatedBiSeries(self.order, [c * factor for c in self.coeffs])

    def invert(self) -> "TruncatedBiSeries":
        """Inverse up to the truncation order.

        Requires the t-constant coefficient to be a unit Laurent polynomial.
        """
        lead = self.coeffs[0]
        if len(lead.coeffs) != 1:  # the units are the single monomials
            raise ValueError("series is not invertible: leading coefficient is not a unit")
        n = self.order
        b0 = _unit_inverse(lead)
        out = [b0]
        for k in range(1, n + 1):
            acc = LaurentPoly.zero()
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if not aj.is_zero:
                    acc = acc + aj * out[k - j]
            out.append(-(b0 * acc) if not acc.is_zero else LaurentPoly.zero())
        return TruncatedBiSeries(n, out)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedBiSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        parts = [f"[{c!r}]*t^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero]
        return " + ".join(parts) if parts else "TruncatedBiSeries(0)"



@dataclass(frozen=True)
class CharacterClass:
    """A character of (Z/n)^4 in dual coordinates, with its order."""

    residues: tuple[int, int, int, int]
    order: int


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
    """Sum of chi(b) over the fixed chi of each order that occurs, in Q(zeta_n)."""
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


def _det_one_minus_x(m: Matrix) -> list[int]:
    """Coefficients c_k with det(1 - x M) = sum c_k x^k, for an integral M.

    c_k is the coefficient of lambda^(d-k) in det(lambda - M), computed by
    the Faddeev-LeVerrier recurrence M_k = M M_(k-1) + c_(k-1),
    c_k = -tr(M M_k) / k, whose divisions are exact over Z.
    """
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
    """Prod over v w <= trunc of the five wedge factors at t^(v w)."""
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
    order w) * (product for order w).  ``lefschetz_q`` computes the same
    [t^n] coefficient over Z.
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


def _partitions(m, largest):
    if m == 0:
        yield ()
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a, b):
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _symmetric_traces(h: Matrix, top: int) -> list[list[int]]:
    """S_0 .. S_top, dense in q: the signed q-trace of psi on Sym^a A.

    S_a = [t^a] prod_(i=0..4) det(1 - t q^i wedge^i Psi)^((-1)^(i+1))
    (Macdonald's formula for symmetric products).  Each factor has constant
    term 1, so dividing by one is a recurrence over Z[q].
    """
    psi = h.transpose()
    series = [[1]] + [[0]] * top
    for i in range(5):
        c = _det_one_minus_x(exterior_power(psi, i))
        factor = [[0] * (i * k) + [x] for k, x in enumerate(c)][1:top + 1]
        if i % 2:
            series = [reduce(_poly_add, (_poly_mul(f, series[a - k])
                                         for k, f in enumerate(factor[:a], 1)), series[a])
                      for a in range(top + 1)]
        else:
            for a in range(1, top + 1):
                for k, f in enumerate(factor[:a], 1):
                    series[a] = _poly_add(series[a], [-x for x in _poly_mul(f, series[a - k])])
    return series


def _fixed_components(h: Matrix, b, g: int) -> int:
    """N_g(h, b) = #{x in (Z/g)^4 : h x + b = x mod g}, by brute force."""
    rows = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(h.data)]
    return sum(all((r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3 + bi) % g == 0
                   for (r0, r1, r2, r3), bi in zip(rows, b))
               for x0, x1, x2, x3 in product(range(g), repeat=4))


def goettsche_soergel(h: Matrix, b, n: int) -> list[int]:
    """Coefficients of q^0 .. q^(4n-4) of L(psi^[n], q) for psi = t_b o h.

    The decomposition of H*(K_(n-1)(A)) over the partitions alpha of n
    (Goettsche-Soergel, Math. Ann. 296, 1993), made equivariant:

        L(psi^[n], q) = sum_(alpha |- n) q^(2(n - l(alpha))) N_g(h, b)
                            prod_i S_(a_i)(q) / det(1 - q Psi),

    with l(alpha) the number of parts, a_i the number of parts equal to i,
    g the gcd of the parts, and N_g(h, b) the components of the fibre of
    A^(alpha) -> A that psi fixes: it maps the component tau in A[g] to
    h tau + b / g.  Asserts that the division leaves no remainder.
    """
    sym = _symmetric_traces(h, n)
    counts: dict[int, int] = {}
    total = [0] * (4 * n + 1)
    for alpha in _partitions(n, n):
        g = gcd(*alpha)
        if g not in counts:
            counts[g] = _fixed_components(h, b, g)
        if counts[g]:
            poly = reduce(_poly_mul, (sym[a] for a in Counter(alpha).values()))
            for i, x in enumerate(poly, 2 * (n - len(alpha))):
                total[i] += counts[g] * x
    c = _det_one_minus_x(h.transpose())
    for k in range(4 * n - 3):  # c_0 = 1: divide from the low end
        for j in range(1, 5):
            total[k + j] -= c[j] * total[k]
    assert not any(total[4 * n - 3:]), "remainder in the Goettsche-Soergel sum"
    return total[:4 * n - 3]


def orbit_traces(aut: TorusAutomorphism) -> list[list[int]]:
    """traces[j][i] = tr((psi^[n])^j | H^i(X)) = (-1)^i [q^i] L(psi^j, q), X = K_(n-1)(A), j < k.

    psi^j = t_(b_j) o h^j with b_0 = 0 and b_(j+1) = h b_j + b mod n, and k,
    the order of psi, is the least j > 0 with h^j = 1 and b_j = 0.  A
    finite-order element of GL_4(Z) has order 1, 2, 3, 4, 5, 6, 8, 10 or 12,
    so h^120 = 1 decides finiteness before any work, and then k <= 12 n.
    """
    h, b, n = aut.matrix, aut.translation, aut.torsion
    if h**120 != identity(4):
        raise ValueError("h has infinite order")
    traces = []
    power, shift = identity(4), (0, 0, 0, 0)
    while not traces or power != identity(4) or any(shift):
        coeffs = lefschetz.lefschetz_q(TorusAutomorphism(power, shift, n)).polynomial.coeffs
        traces.append([(-1) ** i * coeffs.get(i, 0) for i in range(4 * n - 3)])
        power = h @ power
        shift = tuple((sum(x * y for x, y in zip(row, shift)) + c) % n for row, c in zip(h.data, b))
    return traces


def orbit_average(aut: TorusAutomorphism) -> list[Fraction]:
    """(-1)^i (1/k) sum_(j<k) [q^i] L(psi^j, q) for i = 0 .. 4n - 4, psi of order k.

    It is dim H^i(X)^<psi> = b_i(X / <psi>), the rational cohomology of a
    finite quotient being the invariant part (Bredon, Introduction to
    Compact Transformation Groups, 1972, ch. III): an integer in
    [0, b_i(X)], and 1 at i = 0.
    """
    traces = orbit_traces(aut)
    return [Fraction(sum(column), len(traces)) for column in zip(*traces)]
