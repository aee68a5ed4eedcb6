import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlat.matrix import (
    Matrix,
    column_hermite_basis,
    exact_det,
    exact_inverse,
    hstack,
    identity,
    integer_kernel,
    row_hermite,
    saturate_columns,
    smith_normal_form,
    zeros,
)
from isometry_reference import smith_kernel

small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(Matrix)


def test_snf_example_h5_gram():
    # reduces by hand: swap columns to pivot 1, clear, leaving diag(1, 5)
    m = Matrix([[2, 1], [1, -2]])
    u, d, v = smith_normal_form(m)
    assert d == Matrix([[1, 0], [0, 5]])
    assert u @ m @ v == d
    assert exact_det(m) == -5


def test_snf_identity_and_zero():
    u, d, v = smith_normal_form(identity(3))
    assert d == identity(3)
    z = Matrix([[0, 0], [0, 0]])
    _, d, _ = smith_normal_form(z)
    assert d == z


def test_kernel_examples():
    # kernel of phi - id for phi = identity: everything
    assert integer_kernel(zeros(2, 2)) == identity(2)
    # kernel of the identity: nothing
    assert integer_kernel(identity(2)).cols == 0
    # row (1, 1): spanned by (1, -1), found by enumerating small vectors
    assert integer_kernel(Matrix([[1, 1]])) == Matrix([[1], [-1]])


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_soundness(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(exact_det(u)) == 1
    assert abs(exact_det(v)) == 1
    diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x > 0 and y % x == 0)
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_kernel_primitivity(m):
    k = integer_kernel(m)
    # genuinely a kernel
    assert (m @ k) == zeros(m.rows, k.cols)
    if k.cols:
        # basis extends to a basis of Z^cols: SNF invariant factors are all 1
        _, d, _ = smith_normal_form(k)
        assert all(d.data[i][i] == 1 for i in range(k.cols))
    # saturation of the kernel is the kernel itself
    assert saturate_columns(k) == k


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_row_hermite_canonical(m):
    h = row_hermite(m)
    # idempotent and invariant under row shuffles of the input
    assert row_hermite(h) == h
    reversed_rows = Matrix(list(reversed(m.to_lists())), cols=m.cols)
    assert row_hermite(reversed_rows) == h


def test_hermite_kernel_deterministic():
    assert integer_kernel(Matrix([[1, 1]])) == Matrix([[1], [-1]])
    assert integer_kernel(Matrix([[2, 2]])) == Matrix([[1], [-1]])
    assert column_hermite_basis(Matrix([[-1, 0], [1, 0]])) == Matrix([[1], [-1]])


def test_exact_inverse_and_det():
    m = Matrix([[2, 1], [1, -2]])
    inv = exact_inverse(m)
    assert m @ inv == identity(2)
    assert inv[0, 0] == Fraction(2, 5)
    with pytest.raises(ValueError):
        exact_inverse(Matrix([[1, 1], [1, 1]]))


def test_empty_shapes():
    e = zeros(3, 0)
    assert e.transpose().shape == (0, 3)
    assert integer_kernel(e.transpose()) == identity(3)
    assert exact_det(Matrix([])) == 1
    assert hstack(zeros(2, 0), identity(2)) == identity(2)


def test_entry_normalization():
    # rows of plain ints are kept; any other row is normalized entry by entry
    assert Matrix(iter([iter([1, -2]), (3, 4)])).data == ((1, -2), (3, 4))
    m = Matrix([[Fraction(4, 2), 1], [Fraction(1, 2), 0]])
    assert type(m[0, 0]) is int and m[0, 0] == 2 and m[1, 0] == Fraction(1, 2)
    assert not m.is_integral
    assert (m @ Matrix([[0], [2]])).data == ((2,), (0,))
    for bad in ([[1, True]], [[False]], [[1, 2.0]], [["1"]]):
        with pytest.raises(TypeError):
            Matrix(bad)


def test_int_subclass_entries_are_stored_as_int():
    from enum import IntEnum

    class Two(IntEnum):
        TWO = 2

    m = Matrix([[Two.TWO, 1], [0, Fraction(4, 2)]])
    assert [type(x) for row in m.data for x in row] == [int] * 4
    assert m.data == ((2, 1), (0, 2)) and m.is_integral
    assert Matrix([[Fraction(4, 2)]]).is_integral
    assert not Matrix([[1], [Fraction(1, 2)]]).is_integral


def test_unimodular_check():
    # the row Hermite form of [P | I] is [I | P^-1] exactly for unimodular P
    p = Matrix([[1, 5], [0, 1]])
    assert row_hermite(hstack(p, identity(2))) == Matrix([[1, 0, 1, -5], [0, 1, 0, 1]])
    h = row_hermite(hstack(Matrix([[2, 0], [0, 1]]), identity(2)))
    assert Matrix([row[:2] for row in h.data]) != identity(2)


def _random_matrix(rng, rows, cols, bound=9):
    return Matrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def test_integer_kernel_matches_smith_reference():
    rng = random.Random(20260808)
    for rows in range(7):
        for cols in range(7):
            cases = [zeros(rows, cols), _random_matrix(rng, rows, cols)]
            for inner in range(min(rows, cols)):
                # rank at most inner < min(rows, cols)
                cases.append(_random_matrix(rng, rows, inner, 3) @ _random_matrix(rng, inner, cols, 3))
            for m in cases:
                k = integer_kernel(m)
                assert k == smith_kernel(m), m
                assert k.rows == cols and m @ k == zeros(rows, k.cols)


def test_power_matches_repeated_products():
    rng = random.Random(7)
    mats = [
        Matrix([[0, -1], [1, -1]]),  # order 3
        Matrix([[1, 1], [0, 1]]),  # unipotent: entries grow linearly
        Matrix([[Fraction(1, 2), 1], [0, 3]]),
        _random_matrix(rng, 3, 3, 2),
        identity(0),
    ]
    for m in mats:
        expected = identity(m.rows)
        for k in range(31):
            assert m**k == expected, (m, k)
            expected = expected @ m
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) ** 2
    with pytest.raises(ValueError):
        identity(2) ** -1
