from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_reference import MAX_CONDUCTOR, CyclotomicNumber, cyclotomic_polynomial, euler_phi
from kummerlat.lefschetz import MAX_TORSION
from kummerlat.matrix import is_prime, moebius


def test_roots_of_unity():
    z3 = CyclotomicNumber.zeta(3)
    assert z3 * z3 * z3 == 1
    assert 1 + z3 + z3 * z3 == 0


def test_phi5_at_one():
    # prod over primitive fifth roots of (1 - z) equals Phi_5(1) = 5
    prod = CyclotomicNumber.from_rational(5, 1)
    for k in range(1, 5):
        prod = prod * (1 - CyclotomicNumber.zeta(5, k))
    assert prod == 5


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [3, 5, 15])
def test_galois_sum_is_moebius(n):
    total = CyclotomicNumber.from_rational(n, 0)
    for k in range(1, n):
        if gcd(k, n) == 1:
            total = total + CyclotomicNumber.zeta(n, k)
    assert total == moebius(n)


def test_conductor_mismatch_errors():
    with pytest.raises(ValueError):
        CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(5)
    with pytest.raises(ValueError):
        CyclotomicNumber.zeta(3) * CyclotomicNumber.zeta(5)


def test_embedding():
    assert CyclotomicNumber.zeta(3).embed(15) == CyclotomicNumber.zeta(15, 5)
    assert CyclotomicNumber.zeta(5).embed(15) == CyclotomicNumber.zeta(15, 3)
    a = CyclotomicNumber.zeta(3) + 2
    b = a.embed(15)
    assert b - CyclotomicNumber.zeta(15, 5) == 2
    with pytest.raises(ValueError):
        CyclotomicNumber.zeta(3).embed(5)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.from_rational(5, 0).inverse()


def test_rationality():
    z = CyclotomicNumber.zeta(4)  # i
    assert not z.is_rational
    assert (z * z).is_rational
    assert (z * z).rational_value == -1


small_coeffs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 8, 12]), small_coeffs, small_coeffs, small_coeffs)
def test_ring_axioms(n, ca, cb, cc):
    a = CyclotomicNumber(n, ca[: euler_phi(n)])
    b = CyclotomicNumber(n, cb[: euler_phi(n)])
    c = CyclotomicNumber(n, cc[: euler_phi(n)])
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if a != 0:
        assert a * a.inverse() == 1


def test_helpers():
    assert euler_phi(1) == 1
    assert euler_phi(15) == 8
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert is_prime(23) and not is_prime(21) and not is_prime(1)


def test_conductor_cap_covers_every_torsion_order():
    # the reference path sums chi(b) in Q(zeta_n) for every accepted n
    assert MAX_CONDUCTOR == MAX_TORSION
