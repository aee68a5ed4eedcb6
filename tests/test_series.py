from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_reference import CyclotomicNumber
from kummerlat import lefschetz
from kummerlat.lefschetz import LefschetzResult
from lefschetz_reference import LaurentPoly, TruncatedBiSeries, scalar_inverse

ONE = LaurentPoly.one()


def test_geometric_series():
    s = TruncatedBiSeries(3, [ONE, -ONE])
    assert s.invert() == TruncatedBiSeries(3, [ONE, ONE, ONE, ONE])


def test_invert_identity():
    assert TruncatedBiSeries.one(5).invert() == TruncatedBiSeries.one(5)


def test_invert_q_series():
    q = LaurentPoly.monomial(1, 1)
    s = TruncatedBiSeries(2, [ONE, -q])
    inv = s.invert()
    assert inv == TruncatedBiSeries(2, [ONE, q, q * q])
    # oracle: multiply back
    assert s * inv == TruncatedBiSeries.one(2)


def test_invert_requires_unit():
    not_unit = LaurentPoly({0: 1, 1: 1})
    with pytest.raises(ValueError):
        TruncatedBiSeries(2, [not_unit]).invert()
    with pytest.raises(ValueError):
        TruncatedBiSeries.zero(2).invert()


def test_integer_units_invert_over_z():
    assert scalar_inverse(-1) == -1 and type(scalar_inverse(-1)) is int
    assert scalar_inverse(2) == Fraction(1, 2)
    inverse = TruncatedBiSeries(3, [ONE, LaurentPoly({1: -2})]).invert()
    assert inverse == TruncatedBiSeries(3, [ONE, LaurentPoly({1: 2}), LaurentPoly({2: 4}),
                                            LaurentPoly({3: 8})])
    coefficients = [v for c in inverse.coeffs for v in c.coeffs.values()]
    assert all(type(v) is int for v in coefficients)


def test_unit_monomial_leading_coefficient():
    lead = LaurentPoly.monomial(Fraction(2), -1)  # 2 q^-1 is a unit
    s = TruncatedBiSeries(3, [lead, ONE])
    assert s * s.invert() == TruncatedBiSeries.one(3)


unit_series = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=5
)


@settings(max_examples=100, deadline=None)
@given(unit_series, st.integers(min_value=-2, max_value=2))
def test_invert_roundtrip(coeffs, lead_exp):
    order = len(coeffs)
    polys = [LaurentPoly.monomial(Fraction(3, 2), lead_exp)]
    polys += [LaurentPoly({i: c}) for i, c in enumerate(coeffs)]
    s = TruncatedBiSeries(order, polys)
    assert s * s.invert() == TruncatedBiSeries.one(order)


def test_laurent_arithmetic():
    p = LaurentPoly({-1: Fraction(1, 2), 2: 3})
    q = LaurentPoly({-1: Fraction(-1, 2), 0: 1})
    assert (p + q) == LaurentPoly({0: 1, 2: 3})
    assert p.shift(2) == LaurentPoly({1: Fraction(1, 2), 4: 3})
    assert p.evaluate_one() == Fraction(7, 2)
    assert (p - p).is_zero
    assert p * LaurentPoly.zero() == LaurentPoly.zero()


def test_mixed_scalar_coefficients():
    z = CyclotomicNumber.zeta(3)
    p = LaurentPoly({0: Fraction(1)})
    q = LaurentPoly({0: z})
    s = p + q  # Fraction coefficient absorbed into the cyclotomic one
    assert s == LaurentPoly({0: 1 + z})
    total = s + LaurentPoly({0: z * z})
    assert total.is_zero  # 1 + z + z^2 = 0


def test_truncation_drops_high_terms():
    t = TruncatedBiSeries(2, [LaurentPoly.zero(), ONE])
    sq = t * t
    assert sq.coeff(2) == ONE
    cube = sq * t
    assert all(c.is_zero for c in cube.coeffs)


def test_engine_output_type():
    # the engine's class drops zeros, equals the reference ring both ways and
    # hashes consistently, so LefschetzResult stays a hashable immutable value
    out = lefschetz.LaurentPoly({0: 1, 1: 0, 2: -3})
    ref = LaurentPoly({0: Fraction(1), 2: Fraction(-3)})
    assert out.coeffs == {0: 1, 2: -3} and out.evaluate_one() == -2
    assert out == ref and ref == out and out != lefschetz.LaurentPoly({0: 1})
    assert len({LefschetzResult(out, -2), LefschetzResult(ref, -2)}) == 1
    assert repr(out) == "(1)*q^0 + (-3)*q^2" and repr(lefschetz.LaurentPoly()) == "LaurentPoly(0)"
