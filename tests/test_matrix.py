import copy
import json
import pathlib
import pickle
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_reference as ref
from kummerlat.matrix import (
    Matrix,
    _det_bareiss,
    block_diag,
    column_hermite_basis,
    exact_det,
    hstack,
    identity,
    integer_kernel,
    row_hermite,
    smith_normal_form,
    solve,
    zeros,
)
from kummerlat.lattices import make_standard
from kummerlat.lefschetz import _type_matrix
from kummerlat.pool import cyclic_rotation, extended_pool
from isometry_reference import random_unimodular, smith_kernel
from certificate_reference import check_smith
from lattice_reference import sparse_grams

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

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
    d, v = smith_normal_form(m)
    u, *reference = ref.smith_normal_form(m)
    assert d == Matrix([[1, 0], [0, 5]])
    assert [d, v] == reference
    assert u @ m @ v == d
    assert exact_det(m) == -5


def test_snf_identity_and_zero():
    d, v = smith_normal_form(identity(3))
    assert d == v == identity(3)
    z = Matrix([[0, 0], [0, 0]])
    d, _ = smith_normal_form(z)
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
    # no U is built; the reference's U fits our D and V, which equal its own
    d, v = smith_normal_form(m)
    u, *reference = ref.smith_normal_form(m)
    assert [d, v] == reference
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
        d, _ = smith_normal_form(k)
        assert all(d.data[i][i] == 1 for i in range(k.cols))
    # saturation of the kernel is the kernel itself
    assert ref.saturate_columns(k) == k


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


def test_kernel_of_dense_conjugate_stays_fast():
    # phi = 1_4 + (rotation of A_44(-1)) conjugated by a dense unimodular P
    # has small entries; with the first nonzero entry of a column as the
    # Hermite pivot, the xgcd coefficients explode on it
    n = 48
    phi = block_diag(identity(4), cyclic_rotation(44))
    p = random_unimodular(random.Random(1), n, steps=240)
    m = solve(p, phi @ p) - identity(n)
    start = time.perf_counter()
    k = integer_kernel(m)
    assert time.perf_counter() - start < 2
    assert k.shape == (n, 4)
    assert m @ k == zeros(n, 4)
    d, _ = smith_normal_form(k)
    assert all(d.data[i][i] == 1 for i in range(4))  # saturated


def test_kernel_of_dense_rank_68_conjugate_stays_fast():
    # P^-1 C P - 1 for the rotation C of A_68(-1): the echelon pass leaves the
    # image rows unreduced above their pivots; a full Hermite form of
    # [m^T | I] took about 17 s here
    n = 68
    p = random_unimodular(random.Random(1), n, steps=4 * n)
    m = solve(p, cyclic_rotation(n) @ p) - identity(n)
    start = time.perf_counter()
    k, image_index = integer_kernel(m, with_index=True)
    assert time.perf_counter() - start < 3
    # C - 1 is nonsingular with |det| = 69, the order of the discriminant of A_68
    assert k.shape == (n, 0) and image_index == abs(exact_det(m)) == 69


def test_solve_and_det():
    m = Matrix([[2, 1], [1, -2]])
    assert exact_det(m) == -5
    # 5 m^-1 is integral, m^-1 is not
    five_inverse = solve(m, identity(2).scale(5))
    assert m @ five_inverse == identity(2).scale(5) and five_inverse[0, 0] == 2
    with pytest.raises(ValueError, match="^solution is not integral$"):
        solve(m, identity(2))
    with pytest.raises(ValueError, match="^no preserved lattice$"):
        solve(m, identity(2), "no preserved lattice")
    with pytest.raises(ValueError, match="^matrix is singular$"):
        solve(Matrix([[1, 1], [1, 1]]), identity(2))
    for b, y in ((Matrix([[1, 2]]), identity(1)), (identity(2), identity(3))):
        with pytest.raises(ValueError, match="^solve needs a square B"):
            solve(b, y)
    assert solve(identity(0), zeros(0, 3)).shape == (0, 3)


def _solve_outcome(b, y):
    try:
        return solve(b, y)
    except ValueError as exc:
        return str(exc)


def test_solve_matches_fraction_inverse():
    # B X = Y against the Gauss-Jordan inverse over the rationals: the same
    # integer X, or the same refusal (singular B, or no integral X)
    rng = random.Random(20260814)
    outcomes = set()
    for n in range(1, 7):
        for k in range(4):
            for density in DENSITIES[1:]:
                b = _sparse_matrix(rng, n, n, density, (1, -1, 2, -3, 4))
                x = _sparse_matrix(rng, n, k, density)
                for y in (b @ x, _sparse_matrix(rng, n, k, density)):
                    try:
                        expected = ref.integral_matrix(
                            ref.fraction_product(ref.fraction_inverse(b.data), y.data),
                            "solution is not integral",
                        )
                    except ValueError as exc:
                        expected = str(exc)
                    got = _solve_outcome(b, y)
                    assert got == expected, (b, y)
                    outcomes.add(got if isinstance(got, str) else "integral")
    assert outcomes == {"integral", "matrix is singular", "solution is not integral"}


def test_empty_shapes():
    e = zeros(3, 0)
    assert e.transpose().shape == (0, 3)
    assert integer_kernel(e.transpose()) == identity(3)
    assert exact_det(Matrix([])) == 1
    assert hstack(zeros(2, 0), identity(2)) == identity(2)


def test_entry_normalization():
    # rows of plain ints are kept; any other row is checked entry by entry
    assert Matrix(iter([iter([1, -2]), (3, 4)])).data == ((1, -2), (3, 4))
    for bad in ([[1, True]], [[False]], [[1, 2.0]], [["1"]], [[1, None]], [[[1]]]):
        with pytest.raises(TypeError):
            Matrix(bad)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 1.0, True],
                         ids=["half", "two", "float", "bool"])
def test_matrix_rejects_non_int_entries(entry):
    name = type(entry).__name__
    with pytest.raises(TypeError, match=f"^matrix entries must be int, got {name}$"):
        Matrix([[1, 0], [0, entry]])


def test_int_subclass_entries_are_stored_as_int():
    from enum import IntEnum

    class Two(IntEnum):
        TWO = 2

    m = Matrix([[Two.TWO, 1], [0, Two.TWO]])
    assert [type(x) for row in m.data for x in row] == [int] * 4
    assert m.data == ((2, 1), (0, 2))


def test_unimodular_check():
    # the row Hermite form of [P | I] is [I | P^-1] exactly for unimodular P
    p = Matrix([[1, 5], [0, 1]])
    assert row_hermite(hstack(p, identity(2))) == Matrix([[1, 0, 1, -5], [0, 1, 0, 1]])
    h = row_hermite(hstack(Matrix([[2, 0], [0, 1]]), identity(2)))
    assert Matrix([row[:2] for row in h.data]) != identity(2)


def _random_matrix(rng, rows, cols, bound=9):
    return Matrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def test_integer_kernel_matches_smith_reference():
    # the echelon pivots multiply to the index of m Z^cols in Z^rows, the
    # product of the invariant factors of m, when m has full row rank
    rng = random.Random(20260808)
    full_row_rank = Counter()
    for rows in range(7):
        for cols in range(7):
            cases = [zeros(rows, cols), _random_matrix(rng, rows, cols)]
            for inner in range(min(rows, cols)):
                # rank at most inner < min(rows, cols)
                cases.append(_random_matrix(rng, rows, inner, 3) @ _random_matrix(rng, inner, cols, 3))
            for m in cases:
                k, image_index = integer_kernel(m, with_index=True)
                assert k == smith_kernel(m) == integer_kernel(m), m
                assert k.rows == cols and m @ k == zeros(rows, k.cols)
                _, d, _ = ref.smith_normal_form(m)
                factors = [d.data[i][i] for i in range(min(rows, cols))]
                full = rows <= cols and all(factors)
                assert image_index == (prod(factors) if full else 0), m
                full_row_rank[full] += 1
    assert min(full_row_rank.values()) >= 30, full_row_rank


def test_power_matches_repeated_products():
    rng = random.Random(7)
    mats = [
        Matrix([[0, -1], [1, -1]]),  # order 3
        Matrix([[1, 1], [0, 1]]),  # unipotent: entries grow linearly
        Matrix([[2, 1], [0, 3]]),
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


def test_matrix_construction_checks():
    with pytest.raises(ValueError, match="unequal lengths"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="disagrees"):
        Matrix([[1, 2]], cols=3)
    assert Matrix([], cols=4).shape == (0, 4)
    assert Matrix([[]]).shape == (1, 0)
    assert Matrix([[1, 2], [2, 5]]).is_symmetric
    assert Matrix([]).is_symmetric
    assert not Matrix([[0, 1], [2, 0]]).is_symmetric
    assert not Matrix([[1, 2]]).is_symmetric
    assert not zeros(2, 0).is_symmetric


# --- the sparse kernels against the dense references in matrix_reference ---

DENSITIES = (0, 0.1, 0.5, 1)
SMALL_ENTRIES = (1, -1, 1, -1, 2, -2, 3, -5)
LARGE_ENTRIES = (1, -1, 2**61 - 1, -(3**40), 10**15 + 7)


def _sparse_matrix(rng, rows, cols, density, entries=SMALL_ENTRIES):
    return Matrix(
        [[rng.choice(entries) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def _identical(m, n):
    """Equal shapes, entries and entry types."""
    return m == n and [type(x) for r in m.data for x in r] == [type(x) for r in n.data for x in r]


def test_product_matches_dense_reference():
    rng = random.Random(20260808)
    for rows, inner, cols in product(range(9), repeat=3):
        for density in DENSITIES:
            entries = SMALL_ENTRIES if (rows + inner + cols) % 2 else LARGE_ENTRIES
            a = _sparse_matrix(rng, rows, inner, density, entries)
            b = _sparse_matrix(rng, inner, cols, density, entries)
            assert _identical(a @ b, ref.dense_product(a, b)), (a, b)
    with pytest.raises(ValueError):
        identity(2) @ zeros(3, 1)


def test_bareiss_matches_fraction_elimination():
    cases = [
        Matrix([[1, 2, 3], [0, 4, 5], [6, 7, 8]]),  # zero lead, pivot == prev
        Matrix([[2, 1, 3], [0, 4, 5], [1, 7, 8]]),  # zero lead, pivot != prev: rescaled later
        Matrix([[3, 1, 2, 0], [6, 5, 1, 2], [0, 0, 4, 1], [0, 7, 1, 3]]),  # both, later pivots
        Matrix([[0, 1, 2], [3, 4, 5], [6, 7, 9]]),  # zero pivot: swap
        Matrix([[1, 2, 3], [2, 4, 7], [1, 5, 2]]),  # zero pivot after one step: swap
        Matrix([[0, 1], [0, 2]]),  # zero column
        Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]]),  # singular
        Matrix([[-7]]),
    ]
    rng = random.Random(20260810)
    for n in range(1, 9):
        for density in DENSITIES:
            for entries in (SMALL_ENTRIES, LARGE_ENTRIES):
                cases.extend(_sparse_matrix(rng, n, n, density, entries) for _ in range(3))
        for inner in range(n):
            # rank at most inner < n
            cases.append(_sparse_matrix(rng, n, inner, 0.5) @ _sparse_matrix(rng, inner, n, 0.5))
    # at rank 200 to 256 most rows wait many steps for their rescaling, by
    # factors of either sign
    grams = sparse_grams(14)
    for m in cases + grams:
        det = _det_bareiss(m)
        assert type(det) is int and det == ref.det_fraction(m.data), m
        assert exact_det(m) == det
    # with the rows reversed, a permutation of sign (-1)^(n (n - 1) / 2), a
    # waiting row is swapped in as the pivot row
    for m in grams[1::3]:
        n = m.rows
        assert _det_bareiss(Matrix(m.data[::-1])) == (-1) ** (n * (n - 1) // 2) * _det_bareiss(m)


def test_hermite_and_kernel_match_xgcd_reference():
    rng = random.Random(20260811)
    for rows, cols in product(range(9), repeat=2):
        cases = [_sparse_matrix(rng, rows, cols, density) for density in DENSITIES]
        # multiples of 2 and 6 put non-unit pivots above entries they do and do not divide
        cases.append(_sparse_matrix(rng, rows, cols, 0.7, (2, -4, 6, 3, -9, 12)))
        cases.append(_sparse_matrix(rng, rows, cols, 0.5, LARGE_ENTRIES))
        for inner in range(min(rows, cols)):
            cases.append(_sparse_matrix(rng, rows, inner, 0.5) @ _sparse_matrix(rng, inner, cols, 0.5))
        for m in cases:
            assert _identical(row_hermite(m), ref.row_hermite(m)), m
            assert _identical(integer_kernel(m), ref.integer_kernel(m)), m


def _smith_cases() -> list[Matrix]:
    """Seeded sparse matrices of every shape up to 8 x 8, with and without unit pivots."""
    rng = random.Random(20260812)
    cases = [Matrix([[2, 4], [6, 8]]), Matrix([[4, 6], [6, 4]]), Matrix([[2, 0], [0, 3]])]
    for rows, cols in product(range(9), repeat=2):
        for density in DENSITIES:
            m = _sparse_matrix(rng, rows, cols, density)
            cases += [m, m.scale(2), m.scale(6)]  # the scaled copies have no unit pivot
        cases.append(_sparse_matrix(rng, rows, cols, 0.6, (2, -4, 6, 3, -9, 12)))
    return cases


GRAM_SOURCES = ("random", "extended pool", "golden lattice info")


def _gram_cases(source: str) -> list[Matrix]:
    if source == "random":
        return _smith_cases()
    if source == "extended pool":
        return [entry.isometry.lattice.gram for entry in extended_pool()]
    entries = json.loads((GOLDEN / "lattice_info.json").read_text(encoding="utf-8"))
    return [Matrix(entry["job"]["gram"]) for entry in entries]


def test_smith_form_matches_reference():
    # D and V equal the reference's, entry for entry, on every corpus
    for source in GRAM_SOURCES:
        cases = _gram_cases(source)
        assert len(cases) >= 24, source
        for m in cases:
            _, *theirs = ref.smith_normal_form(m)
            assert all(map(_identical, smith_normal_form(m), theirs)), m


def test_smith_form_is_certified_on_every_nonsingular_square_case():
    # (D, V) passes the product-only certificate, which reads no U
    for source in GRAM_SOURCES:
        cases = [m for m in _gram_cases(source) if m.is_square and ref.det_fraction(m.data)]
        assert len(cases) >= 24, source
        for m in cases:
            assert check_smith(m, *smith_normal_form(m)) == [], m


def test_smith_certificate_rejects_tampered_forms():
    # H5 + <-10> + <4> has D = diag(1, 1, 10, 20); each tampering breaks the
    # one check that catches it
    m = block_diag(Matrix([[2, 1], [1, -2]]), Matrix([[-10]]), Matrix([[4]]))
    d, v = smith_normal_form(m)
    assert [d.data[j][j] for j in range(4)] == [1, 1, 10, 20]
    assert check_smith(m, d, v) == []

    def diagonal(*entries):
        return Matrix([[x if i == j else 0 for j in range(4)] for i, x in enumerate(entries)])

    def columns(*order, scale=(1, 1, 1, 1)):
        return Matrix([[row[j] * k for j, k in zip(order, scale)] for row in v.data])

    assert "prod d_j = |det G|" in check_smith(m, diagonal(1, 1, 10, 40), v)
    assert check_smith(m, d, columns(0, 2, 1, 3)) == ["d_j | column j of G V"]
    assert check_smith(m, diagonal(1, 1, 20, 10), columns(0, 1, 3, 2)) == ["d_j | d_(j+1)"]
    assert check_smith(m, d, columns(0, 1, 2, 3, scale=(2, 1, 1, 1))) == ["det V = +-1"]


# --- entries checked at construction: the integer path against the public constructor ---


def _operands(rng, rows, cols):
    """Sparse integer matrices of one shape, with small and with large entries."""
    return [_sparse_matrix(rng, rows, cols, 0.6), _sparse_matrix(rng, rows, cols, 0.6, (2, -4, 6)),
            _sparse_matrix(rng, rows, cols, 0.6, LARGE_ENTRIES)]


def _public_transpose(m):
    if m.rows == 0:
        return Matrix([[] for _ in range(m.cols)], cols=0)
    if m.cols == 0:
        return Matrix([], cols=m.rows)
    return Matrix(tuple(zip(*m.data)))


def _public_block_diag(*mats):
    cols = sum(m.cols for m in mats)
    out = []
    c0 = 0
    for m in mats:
        out += [[0] * c0 + list(row) + [0] * (cols - c0 - m.cols) for row in m.data]
        c0 += m.cols
    return Matrix(out, cols=cols)


def _check_built(m, expected):
    """``m`` equals ``expected``, built by the public constructor, in entries, types and shape;
    so does ``m`` rebuilt from its own data, and every entry is a plain int."""
    assert _identical(m, expected), (m, expected)
    assert m.shape == expected.shape
    assert _identical(m, Matrix(m.data, cols=m.cols))
    assert all(type(x) is int for row in m.data for x in row)


def test_integer_results_match_the_public_constructor():
    rng = random.Random(20260813)
    for rows, cols in product(range(5), repeat=2):
        same_shape = _operands(rng, rows, cols)
        for a in same_shape:
            _check_built(-a, Matrix([[-x for x in row] for row in a.data], cols=cols))
            _check_built(a.transpose(), _public_transpose(a))
            for k in (3, -1, 0):
                _check_built(a.scale(k), Matrix([[k * x for x in row] for row in a.data], cols=cols))
            for b in same_shape:
                _check_built(a + b, Matrix([[x + y for x, y in zip(r, s)]
                                            for r, s in zip(a.data, b.data)], cols=cols))
                _check_built(a - b, Matrix([[x - y for x, y in zip(r, s)]
                                            for r, s in zip(a.data, b.data)], cols=cols))
            for inner in range(4):
                for b in _operands(rng, cols, inner):
                    _check_built(a @ b, ref.dense_product(a, b))
                for b in _operands(rng, rows, inner):
                    _check_built(hstack(a, b), Matrix([list(r) + list(s) for r, s in zip(a.data, b.data)],
                                                      cols=cols + inner))
                    for c in _operands(rng, inner, rows):
                        _check_built(block_diag(a, b, c), _public_block_diag(a, b, c))
            for ours, theirs in zip(smith_normal_form(a), ref.smith_normal_form(a)[1:]):
                _check_built(ours, theirs)
            _check_built(row_hermite(a), ref.row_hermite(a))
            _check_built(integer_kernel(a), ref.integer_kernel(a))
    _check_built(block_diag(), Matrix([]))


def test_identity_and_zeros_match_the_public_constructor():
    for n in range(46):
        _check_built(identity(n), Matrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n))
        assert identity(n) is identity(n)
    for rows, cols in product(range(5), repeat=2):
        _check_built(zeros(rows, cols), Matrix([[0] * cols for _ in range(rows)], cols=cols))


def test_matrix_fields_cannot_be_assigned():
    # identity(n) is shared through a memo, as are the matrices of the
    # Lefschetz type table and of the standard lattices; assigning a field
    # of one of them would change it for every later caller
    shared = [identity(2), _type_matrix(1), make_standard("U").gram, Matrix([[1, 2], [3, 4]])]
    for m in shared:
        before = (m.data, m.rows, m.cols)
        for name in ("data", "rows", "cols", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, ((5,),))
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert (m.data, m.rows, m.cols) == before
    assert identity(2).data == ((1, 0), (0, 1))


def test_matrix_copy_and_pickle():
    for m in (identity(3), Matrix([[1, -2**70], [0, 7]]), zeros(0, 4), zeros(3, 0)):
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(clone) is Matrix and clone == m and clone.shape == m.shape
            _check_built(clone, m)
            with pytest.raises(AttributeError):
                clone.data = ()
