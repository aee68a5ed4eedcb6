"""The Lefschetz engine's output type: an integer Laurent polynomial in q.

It stores and compares the coefficients and evaluates at q = 1; it has
no arithmetic.  The exact-scalar Laurent ring the tests multiply and
invert with is ``tests/lefschetz_reference.py``, a subclass of this one.
"""


class LaurentPoly:
    """Finitely supported map ``coeffs`` from integer exponents of q to nonzero coefficients."""

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
