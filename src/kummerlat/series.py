"""Laurent polynomials in q and truncated power series in t over them.

Coefficients are exact scalars: int, Fraction, or CyclotomicNumber.  The
scalar types interoperate through their own coercion rules, so a series
built over the rationals can be rescaled by a root of unity without any
conversion step here.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CyclotomicNumber


def scalar_inverse(x):
    if isinstance(x, CyclotomicNumber):
        return x.inverse()
    if isinstance(x, int) and abs(x) == 1:
        return x  # a unit of Z: inversion and division by it stay over Z
    return Fraction(1) / Fraction(x)


def scalar_as_fraction(x) -> Fraction:
    """Convert an exact scalar to a Fraction, or raise if it is irrational."""
    if isinstance(x, CyclotomicNumber):
        return x.rational_value
    return Fraction(x)


class LaurentPoly:
    """Finitely supported map from integer exponents of q to exact scalars."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v != 0:
                    c[int(e)] = v
        self.coeffs = c

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

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero Laurent polynomial has no exponents")
        return min(self.coeffs)

    @property
    def is_unit(self) -> bool:
        """Units of the Laurent polynomial ring over a field: single monomials."""
        return len(self.coeffs) == 1

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
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
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
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

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly({0: other})
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[e] == other.coeffs[e] for e in self.coeffs)

    def __hash__(self):
        return hash(frozenset((e, str(v)) for e, v in self.coeffs.items()))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly({e + k: v for e, v in self.coeffs.items()})

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit:
            raise ValueError("Laurent polynomial is not a unit (single monomial)")
        ((e, v),) = self.coeffs.items()
        return LaurentPoly({-e: scalar_inverse(v)})

    def evaluate_one(self):
        """Value at q = 1."""
        total = 0
        for v in self.coeffs.values():
            total = v + total
        return total

    def to_fraction_coeffs(self) -> dict[int, Fraction]:
        """Coefficients as Fractions; raises ValueError on irrational entries."""
        return {e: scalar_as_fraction(v) for e, v in self.coeffs.items()}

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = [f"({v})*q^{e}" for e, v in sorted(self.coeffs.items())]
        return " + ".join(parts)


def laurent_divmod(num: LaurentPoly, den: LaurentPoly):
    """Exact long division in the Laurent ring over a field.

    Returns (quotient, remainder) with num = quotient * den + remainder; the
    remainder, viewed from the lowest exponent of num, has degree smaller
    than den.  Division is exact iff the remainder is zero.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if num.is_zero:
        return LaurentPoly.zero(), LaurentPoly.zero()
    ns, ds = num.min_exp, den.min_exp
    p = {e - ns: v for e, v in num.coeffs.items()}
    d = {e - ds: v for e, v in den.coeffs.items()}
    dd = max(d)
    lead_inv = scalar_inverse(d[dd])
    q = {}
    while p and max(p) >= dd:
        e = max(p)
        c = p[e] * lead_inv
        q[e - dd] = c
        for de, dv in d.items():
            t = e - dd + de
            s = p.get(t, 0) - c * dv
            if s == 0:
                p.pop(t, None)
            else:
                p[t] = s
    quotient = LaurentPoly({e + ns - ds: v for e, v in q.items()})
    remainder = LaurentPoly({e + ns: v for e, v in p.items()})
    return quotient, remainder


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
        if lead.is_zero or not lead.is_unit:
            raise ValueError("series is not invertible: leading coefficient is not a unit")
        n = self.order
        b0 = lead.unit_inverse()
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
