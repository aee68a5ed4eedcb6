"""Exact arithmetic in cyclotomic number fields Q(zeta_N), used by the tests alone.

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) modulo
the N-th cyclotomic polynomial, so equality is decidable coefficientwise.
The reference Lefschetz path (``lefschetz_reference.py``) sums chi(b) in
these fields; the integer engine of ``kummerlat.lefschetz`` needs none of
it.  Conductors are capped at MAX_CONDUCTOR, which is also the largest
torsion order the engine accepts (``kummerlat.lefschetz.MAX_TORSION``), so
the reference reaches every n the engine does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

MAX_CONDUCTOR = 60


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _int_poly_divmod(num, den):
    # den monic; exact division over Z
    num = list(num)
    dn = len(den) - 1
    if len(num) - 1 < dn:
        return [], num
    q = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            q[i - dn] = c
            for k in range(dn + 1):
                num[i - dn + k] -= c * den[k]
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic of degree phi(n)."""
    if n < 1:
        raise ValueError("cyclotomic_polynomial needs n >= 1")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _int_poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(poly)


def _reduce_mod_cyclotomic(coeffs, n):
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        t = c[i]
        if t:
            for k in range(deg + 1):
                c[i - deg + k] -= t * phi[k]
    c = c[:deg]
    c += [Fraction(0)] * (deg - len(c))
    return c


class CyclotomicNumber:
    """An element of Q(zeta_N) in the power basis modulo Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if not 1 <= conductor <= MAX_CONDUCTOR:
            raise ValueError(f"conductor must be in 1..{MAX_CONDUCTOR}")
        deg = euler_phi(conductor)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError("coefficient vector longer than phi(N)")
        cs += [Fraction(0)] * (deg - len(cs))
        self.conductor = conductor
        self.coeffs = tuple(cs)

    @classmethod
    def from_rational(cls, conductor: int, value) -> "CyclotomicNumber":
        return cls(conductor, [Fraction(value)])

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "CyclotomicNumber":
        power %= conductor
        deg = euler_phi(conductor)
        if power < deg:
            coeffs = [Fraction(0)] * power + [Fraction(1)]
            return cls(conductor, coeffs)
        raw = [Fraction(0)] * power + [Fraction(1)]
        return cls(conductor, _reduce_mod_cyclotomic(raw, conductor))

    def _coerce(self, other):
        """Return coefficients of ``other`` in this field, or None."""
        if isinstance(other, CyclotomicNumber):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}; "
                    "embed into a common conductor first"
                )
            return other.coeffs
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return (Fraction(other),) + (Fraction(0),) * (len(self.coeffs) - 1)
        return None

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return CyclotomicNumber(self.conductor, [a + b for a, b in zip(self.coeffs, oc)])

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return CyclotomicNumber(self.conductor, [a - b for a, b in zip(self.coeffs, oc)])

    def __rsub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return CyclotomicNumber(self.conductor, [b - a for a, b in zip(self.coeffs, oc)])

    def __mul__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        a, b = self.coeffs, oc
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return CyclotomicNumber(self.conductor, _reduce_mod_cyclotomic(prod, self.conductor))

    __rmul__ = __mul__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-a for a in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor != self.conductor:
                if self.is_rational and other.is_rational:
                    return self.rational_value == other.rational_value
                raise ValueError("cannot compare elements of different conductors")
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.is_rational and self.rational_value == Fraction(other)
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.rational_value)
        return hash((self.conductor, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def inverse(self) -> "CyclotomicNumber":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        # extended Euclid in Q[x]: s*self + t*Phi = gcd (a nonzero constant)
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
        if len(_trim(r0)) != 1:
            raise AssertionError("cyclotomic polynomial is not coprime to element")
        g = r0[0]
        inv_coeffs = [c / g for c in s0]
        return CyclotomicNumber(self.conductor, _reduce_mod_cyclotomic(inv_coeffs, self.conductor))

    def __truediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self * CyclotomicNumber(self.conductor, oc).inverse()

    def embed(self, conductor: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_M) for a multiple M of the current conductor."""
        if conductor % self.conductor != 0:
            raise ValueError(
                f"cannot embed conductor {self.conductor} into {conductor}: not a multiple"
            )
        if conductor == self.conductor:
            return self
        step = conductor // self.conductor
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return CyclotomicNumber(conductor, _reduce_mod_cyclotomic(raw, conductor))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                else:
                    terms.append(f"{c}*z{self.conductor}^{i}")
        return " + ".join(terms) if terms else "0"


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _frac_poly_divmod(num, den):
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(len(num) - dn, 0)
    r = list(num)
    for i in range(len(r) - 1, dn - 1, -1):
        c = r[i] / lead
        if c:
            q[i - dn] = c
            for k in range(dn + 1):
                r[i - dn + k] -= c * den[k]
    return q, _trim(r)


def _frac_poly_mul(a, b):
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]

