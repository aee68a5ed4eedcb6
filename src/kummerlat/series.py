"""Laurent polynomials in q with exact coefficients.

The ring operations use the coefficients' own arithmetic, so any exact
scalars that add and multiply with each other and with int can be
coefficients.  The Lefschetz engine's public outputs have int
coefficients.
"""

from __future__ import annotations

from fractions import Fraction


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

    def evaluate_one(self):
        """Value at q = 1."""
        total = 0
        for v in self.coeffs.values():
            total = v + total
        return total

    def to_fraction_coeffs(self) -> dict[int, Fraction]:
        """Coefficients as Fractions."""
        return {e: Fraction(v) for e, v in self.coeffs.items()}

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = [f"({v})*q^{e}" for e, v in sorted(self.coeffs.items())]
        return " + ".join(parts)
