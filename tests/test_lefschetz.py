import hashlib
import random
import time
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

from cyclotomic_reference import CyclotomicNumber, euler_phi
from isometry_reference import random_unimodular
from kummerlat.lefschetz import (
    CATALOG_EXPECTED,
    MAX_TORSION,
    TorusAutomorphism,
    catalog,
    catalog_variants,
    corollary_value,
    lefschetz_poly_surface,
    lefschetz_q,
    run_catalog_table,
    torus_automorphism,
)
from kummerlat.matrix import Matrix, block_diag, exact_det, identity, moebius, solve
from lefschetz_reference import (
    CharacterClass,
    LaurentPoly,
    TruncatedBiSeries,
    _character_order_sums,
    _order_product,
    exterior_power,
    fixed_characters,
    generating_series,
    goettsche_soergel,
    orbit_average,
    orbit_traces,
)
from matrix_reference import apply, fraction_inverse, fraction_product, integral_matrix
from matrix_reference import smith_normal_form as reference_smith_form


def _clear_lefschetz_memos():
    import kummerlat.lefschetz as lef

    lef._matrix.cache_clear()
    lef._ORDER_SERIES.clear()


@pytest.fixture(autouse=True)
def cold_lefschetz_memos():
    # a memo grown by an earlier test would skip the code a guard test corrupts
    _clear_lefschetz_memos()


def test_exterior_powers():
    assert exterior_power(identity(4), 2) == identity(6)
    m = Matrix([[1, 2, 0, 1], [0, 1, 1, 0], [2, 0, 1, 1], [1, 1, 0, 1]])
    assert exterior_power(m, 4) == Matrix([[exact_det(m)]])
    d = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    assert exterior_power(d, 2) == Matrix(
        [
            [1, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )


def test_exterior_power_multiplicative():
    rng = random.Random(5)
    for _ in range(10):
        a = random_unimodular(rng, 4)
        b = random_unimodular(rng, 4)
        for i in range(5):
            assert exterior_power(a @ b, i) == exterior_power(a, i) @ exterior_power(b, i)


def test_lefschetz_poly_surface():
    assert lefschetz_poly_surface(identity(4)) == LaurentPoly(
        {0: 1, 1: -4, 2: 6, 3: -4, 4: 1}
    )
    assert lefschetz_poly_surface(-identity(4)) == LaurentPoly({0: 1, 1: 4, 2: 6, 3: 4, 4: 1})
    comp5 = catalog(8, "h").matrix
    assert lefschetz_poly_surface(comp5) == LaurentPoly({k: 1 for k in range(5)})


def test_lefschetz_poly_surface_needs_a_4x4_matrix():
    # a 3x4 matrix once gave (1 - q)^3 and a 3x2 one an IndexError
    for m in (Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]), Matrix([[1, 0], [0, 1], [0, 0]]),
              identity(3), identity(5)):
        with pytest.raises(ValueError, match="torus automorphism needs an integral 4x4 matrix"):
            lefschetz_poly_surface(m)


def test_lefschetz_poly_equals_alternating_traces():
    # the closed determinant form agrees with the alternating trace sum
    rng = random.Random(9)
    for _ in range(10):
        h = random_unimodular(rng, 4)
        psi = h.transpose()
        expected = LaurentPoly.zero()
        for k in range(5):
            wedge = exterior_power(psi, k)
            tr = sum(wedge.data[i][i] for i in range(wedge.rows))
            expected = expected + LaurentPoly.monomial(Fraction((-1) ** k * tr), k)
        assert lefschetz_poly_surface(h) == expected


def test_fixed_characters():
    assert len(fixed_characters(identity(4), 3)) == 81
    assert fixed_characters(identity(4), 1) == [CharacterClass((0, 0, 0, 0), 1)]
    comp5 = catalog(8, "h").matrix
    fixed = fixed_characters(comp5, 3)
    # brute force oracle over all 81 vectors
    ht = comp5.transpose()
    expected = [
        c
        for c in product(range(3), repeat=4)
        if all((x - y) % 3 == 0 for x, y in zip(apply(ht, c), c))
    ]
    assert [f.residues for f in fixed] == expected
    assert expected == [(0, 0, 0, 0)]
    # character orders
    orders = {f.residues: f.order for f in fixed_characters(identity(4), 3)}
    assert orders[(0, 0, 0, 0)] == 1
    assert orders[(1, 0, 2, 0)] == 3


def test_generating_series_low_order_terms():
    # torsion free case: single character, [t^0] = 1 and
    # q^2 [t^1] = L(psi, q) so that the Kummer variety of one point gives 1
    aut = torus_automorphism(identity(4), (0, 0, 0, 0), 1)
    series = generating_series(aut, 1)
    assert series.coeff(0) == LaurentPoly.one()
    assert series.coeff(1).shift(2) == lefschetz_poly_surface(identity(4))


def test_generating_series_character_sum_at_t0():
    # 81 fixed characters, all chi(0) = 1
    aut = catalog(0, "id")
    series = generating_series(aut, 3)
    assert series.coeff(0) == LaurentPoly({0: Fraction(81)})


def test_generating_series_matches_per_character_sum():
    # oracle: assemble the sum character by character without grouping
    for kind, variant in ((8, "h"), (5, "u=0,v in Delta6"), (1, "u!=0")):
        aut = catalog(kind, variant)
        n = aut.torsion
        grouped = generating_series(aut, n)
        psi = aut.matrix.transpose()
        total = TruncatedBiSeries.zero(n)
        for chi in fixed_characters(aut.matrix, n):
            pairing = sum(c * b for c, b in zip(chi.residues, aut.translation)) % n
            chi_b = CyclotomicNumber.zeta(n, pairing)
            total = total + _order_product(psi, chi.order, n).scaled(chi_b)
        assert grouped == total


def test_division_identity_formal_series():
    # L(psi, q) * L(psi^[n], q) = q^(2n) [t^n] (character sum)
    for kind, variant in ((0, "id"), (7, "b notin Delta6xDelta6"), (8, "-h")):
        aut = catalog(kind, variant)
        n = aut.torsion
        series = generating_series(aut, n)
        numerator = series.coeff(n).shift(2 * n)
        result = lefschetz_q(aut)
        product_poly = LaurentPoly(lefschetz_poly_surface(aut.matrix).coeffs) * result.polynomial
        assert numerator == product_poly


def test_lefschetz_q_small_values():
    assert lefschetz_q(catalog(0, "id")).value == 108
    assert lefschetz_q(catalog(0, "t_b")).value == 27
    assert lefschetz_q(catalog(0, "-id")).value == 60


def test_lefschetz_polynomial_type0_palindromic():
    poly = LaurentPoly(lefschetz_q(catalog(0, "id")).polynomial.coeffs).to_fraction_coeffs()
    assert min(poly) == 0 and max(poly) == 8
    assert all(poly.get(k, 0) == poly.get(8 - k, 0) for k in range(9))
    # alternating Betti numbers of the Kummer fourfold
    assert poly[2] == 7 and poly[3] == -8 and poly[4] == 108


def test_poincare_duality_for_every_catalog_entry():
    # psi^[n] is a holomorphic automorphism of the compact fourfold K_(n-1)(A)
    # of real dimension 4n - 4, so it fixes the orientation class and Poincare
    # duality pairs H^k with H^(4n-4-k) equivariantly; the traces are rational,
    # hence equal, and the coefficients of q^0 .. q^(4n-4) form a palindrome.
    rng = random.Random(83)
    cases = 0
    for kind, variant, _ in CATALOG_EXPECTED:
        h = catalog(kind, variant).matrix
        for m in (h, -h):
            for n in range(2, 9):
                top = 4 * n - 4
                for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                    polynomial = lefschetz_q(torus_automorphism(m, b, n)).polynomial
                    poly = LaurentPoly(polynomial.coeffs).to_fraction_coeffs()
                    assert set(poly) <= set(range(top + 1)), (kind, variant, n, b)
                    assert all(poly.get(k, 0) == poly.get(top - k, 0) for k in range(top + 1)), \
                        (kind, variant, m, n, b)
                    cases += 1
    assert cases == 1092


def test_outputs_are_plain_ints():
    # the engine stays over Z: no Fraction, bool or int subclass in any output
    rng = random.Random(89)
    auts = [catalog(kind, variant) for kind, variant, _ in CATALOG_EXPECTED]
    for n in range(1, 9):
        for _ in range(3):
            h = random_unimodular(rng, 4)
            auts.append(torus_automorphism(h, tuple(rng.randrange(n) for _ in range(4)), n))
    for aut in auts:
        result = lefschetz_q(aut)
        values = list(result.polynomial.coeffs.values()) + [result.value, corollary_value(aut)]
        values += lefschetz_poly_surface(aut.matrix).coeffs.values()
        assert all(type(x) is int for x in values), (aut.matrix, aut.translation, aut.torsion)


def test_kummer_point_is_trivial():
    # K_1 is a point: any automorphism has Lefschetz number 1
    rng = random.Random(21)
    for _ in range(6):
        h = random_unimodular(rng, 4)
        aut = torus_automorphism(h, (0, 0, 0, 0), 1)
        result = lefschetz_q(aut)
        assert result.value == 1
        assert result.polynomial == LaurentPoly.one()


def test_corollary_value_examples():
    # identity part makes every determinant vanish
    assert corollary_value(catalog(0, "t_b")) == 0
    # order five action: L(psi) * L(psi^[3]) = 5 * 13
    assert corollary_value(catalog(8, "h")) == 65
    # n = 1: L(psi) * L(point) = det(1 - Psi) = 2^4
    aut = torus_automorphism(-identity(4), (0, 0, 0, 0), 1)
    assert corollary_value(aut) == 16


def test_corollary_matches_product_for_all_entries():
    for kind, variant, _ in CATALOG_EXPECTED:
        aut = catalog(kind, variant)
        value = lefschetz_q(aut).value
        l_one = lefschetz_poly_surface(aut.matrix).evaluate_one()
        assert corollary_value(aut) == Fraction(l_one) * value, (kind, variant)


def test_catalog_validation():
    with pytest.raises(ValueError):
        catalog(8, "nope")
    with pytest.raises(ValueError):
        catalog(9, "h")
    for kind in range(9):
        assert catalog_variants(kind)


def test_catalog_type8_matrix():
    aut = catalog(8, "h")
    h = aut.matrix
    assert h ** 5 == identity(4)
    assert exact_det(h) == 1
    assert h == Matrix([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])


def test_catalog_type5_block():
    aut = catalog(5, "u=0,v in Delta6")
    assert aut.matrix == block_diag(identity(2), Matrix([[-1, -1], [1, 0]]))
    assert aut.translation == (0, 0, 1, 1)
    assert (aut.matrix ** 3) == identity(4)


def test_catalog_quotient_types_are_conjugated_products():
    # types 2, 3, 6 act integrally on the quotient torus lattice and have the
    # same order as the product action
    for kind, order in ((2, 2), (3, 2), (6, 3)):
        aut = catalog(kind, "h")
        assert aut.matrix ** order == identity(4)
        assert abs(exact_det(aut.matrix)) == 1


def test_catalog_translations_are_the_named_points():
    # a variant named by a third point v/3 of the product torus lattice has
    # the residues mod 3 of its coordinates x on the type's basis B, where
    # den B x = den v
    import kummerlat.lefschetz as lef

    named = {
        1: {"u=0": (0, 0, 1, 0), "u!=0": (1, 0, 0, 0)},
        2: {"u=0": (0, 0, 1, 0), "u!=0": (1, 0, 0, 0)},
        3: {"u=0": (0, 0, 1, 0), "u!=0": (1, 0, 0, 0)},
        6: {"t=0,u in Za": (0, 0, 1, 0), "t=0,u notin Za": (0, 1, 0, 0)},
    }
    den = {1: 1, 2: 2, 3: 2, 6: 3}
    for kind, points in named.items():
        basis = lef._TYPES[kind][2] or identity(4)
        for variant, v in points.items():
            x = solve(basis, Matrix([[den[kind] * c] for c in v]))
            assert catalog(kind, variant).translation == tuple(row[0] % 3 for row in x.data), \
                (kind, variant)


def test_catalog_digest():
    # every catalog entry's expected value, matrix, translation and torsion,
    # pinned by one sha256 over its lines
    lines = []
    for kind, variant, expected in CATALOG_EXPECTED:
        aut = catalog(kind, variant)
        lines.append(f"{kind}|{variant}|{expected}|{aut.matrix.data}|{aut.translation}|{aut.torsion}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6b25f9a0dcc2011658be2538063e2a84218dbb99fe9b79ecddfe83416f574f2c")


def test_catalog_type_matrices_built_once(monkeypatch):
    import kummerlat.lefschetz as lef

    lef._type_matrix.cache_clear()
    for kind, variant, _ in CATALOG_EXPECTED:
        catalog(kind, variant)
    info = lef._type_matrix.cache_info()
    assert (info.misses, info.currsize) == (9, 9)
    assert catalog(5, "h").matrix is catalog(5, "u=0,v in Delta6").matrix
    # the order check runs inside the memo, on the first use of each type
    lef._type_matrix.cache_clear()
    monkeypatch.setitem(lef._TYPES, 8, (lef._TYPES[8][0], 3, None))
    with pytest.raises(AssertionError, match="does not have order 3"):
        catalog(8, "h")
    monkeypatch.undo()
    lef._type_matrix.cache_clear()


def test_run_catalog_table_all_pass():
    report = run_catalog_table()
    assert report.passed
    assert len(report.entries) == len(CATALOG_EXPECTED)


def _h_matrix(kind):
    return catalog(kind, "id" if kind == 0 else "h").matrix


def test_record_left_transform_fits_the_smith_form_of_1_minus_h():
    # the record's U is V1^T of the Smith form U1 (1 - Psi) V1 = D of the
    # transpose, so U (1 - H) U1^T = D with U1 from the reference Smith form
    import kummerlat.lefschetz as lef

    rng = random.Random(61)
    hs = [_h_matrix(kind).scale(sign) for kind in range(9) for sign in (1, -1)]
    hs += [random_unimodular(rng, 4) for _ in range(100)]
    for h in hs:
        record = lef._matrix(h.data)
        u = Matrix(record.u_rows)
        u1, d, _ = reference_smith_form((identity(4) - h).transpose())
        assert u @ (identity(4) - h) @ u1.transpose() == d, h
        assert abs(exact_det(u)) == 1, h
        assert record.diagonal == tuple(d.data[i][i] for i in range(4)), h


def _enumeration_expected(kind, beta):
    b12_zero = beta[0] == 0 and beta[1] == 0
    if kind == 0:
        return 108 if all(x == 0 for x in beta) else 27
    if kind in (1, 2, 3):
        return 12 if b12_zero else 3
    if kind == 4:
        return 16
    if kind == 5:
        return 27 if (b12_zero and beta[2] == beta[3]) else 0
    if kind == 6:
        return 9 if b12_zero else 0
    if kind == 7:
        return 36 if (beta[0] == beta[1] and beta[2] == beta[3]) else 27
    if kind == 8:
        return 13
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", range(9))
def test_translation_enumeration_h(kind):
    # all 81 translation classes composed with h
    h = _h_matrix(kind)
    for beta in product(range(3), repeat=4):
        aut = torus_automorphism(h, beta, 3)
        assert lefschetz_q(aut).value == _enumeration_expected(kind, beta), beta


_NEG_H_VALUES = {0: 60, 4: 16, 5: 9, 6: 9, 7: 12, 8: 5}


@pytest.mark.parametrize("kind", sorted(_NEG_H_VALUES))
def test_translation_enumeration_neg_h(kind):
    # composing -h with any translation gives one constant value
    h = _h_matrix(kind)
    for beta in product(range(3), repeat=4):
        aut = torus_automorphism(-h, beta, 3)
        assert lefschetz_q(aut).value == _NEG_H_VALUES[kind], beta


def test_b_shift_invariance():
    # replacing b by b + (h x - x) leaves the value unchanged
    rng = random.Random(17)
    for kind in range(9):
        h = _h_matrix(kind)
        shift_matrix = h - identity(4)
        for _ in range(4):
            beta = tuple(rng.randrange(3) for _ in range(4))
            x = tuple(rng.randrange(3) for _ in range(4))
            shifted = tuple((b + s) % 3 for b, s in zip(beta, apply(shift_matrix, x)))
            v1 = lefschetz_q(torus_automorphism(h, beta, 3)).value
            v2 = lefschetz_q(torus_automorphism(h, shifted, 3)).value
            assert v1 == v2


def test_values_are_basis_independent():
    rng = random.Random(23)
    for kind, variant in ((8, "h"), (5, "-h"), (7, "b notin Delta6xDelta6")):
        aut = catalog(kind, variant)
        base = lefschetz_q(aut).value
        for _ in range(4):
            p = random_unimodular(rng, 4)
            p_inv = fraction_inverse(p.data)
            h2 = integral_matrix(fraction_product(fraction_product(p_inv, aut.matrix.data), p.data))
            # translation transforms by the inverse basis change
            b2 = integral_matrix(fraction_product(p_inv, [[x] for x in aut.translation]))
            b2 = tuple(row[0] % 3 for row in b2.data)
            value = lefschetz_q(torus_automorphism(h2, b2, 3)).value
            assert value == base


def test_division_and_rationality_guards(monkeypatch):
    # inject corrupted memo data to exercise the runtime guards
    import kummerlat.lefschetz as lef

    aut = catalog(0, "id")
    record = lef._matrix(aut.matrix.data).table(aut.torsion)

    def corrupt(tops):
        monkeypatch.setattr(record, "tops", tops)

    # q^(2n) [t^n] with a negative exponent: q-valuation below -2n
    corrupt({1: (-1, [1]), 3: (0, [])})
    with pytest.raises(ValueError, match="division identity violated: q-valuation"):
        lef.lefschetz_q(aut)

    # numerator not divisible by L(psi, q)
    corrupt({1: (0, [1]), 3: (0, [])})
    with pytest.raises(ValueError, match="division identity violated: nonzero remainder"):
        lef.lefschetz_q(aut)


def test_division_guard_reads_every_remainder_coefficient(monkeypatch):
    # the quotient of a degree 4n numerator by the quartic L(psi, q) stops at
    # q^(4n-4); a stray term at any of q^(4n-3) .. q^(4n) is a remainder
    import kummerlat.lefschetz as lef

    aut = catalog(0, "id")
    n = aut.torsion
    record = lef._matrix(aut.matrix.data).table(n)

    def numerator(dense):
        monkeypatch.setattr(record, "tops", {1: (0, dense), 3: (0, [])})

    # sigma_1 = 1: the numerator is L(psi, q) (1 + q^(4n-4)), whose quotient
    # is a palindrome, as the Poincare duality guard requires for det h = 1
    numerator(list(record.c) + [0] * (4 * n - 9) + list(record.c))
    assert lef.lefschetz_q(aut) == lef.LefschetzResult(LaurentPoly({0: 1, 4 * n - 4: 1}), 2)
    for k in range(4 * n - 3, 4 * n + 1):
        numerator(list(record.c) + [0] * (k - 5) + [1])
        with pytest.raises(ValueError, match="division identity violated: nonzero remainder"):
            lef.lefschetz_q(aut)


def test_poincare_duality_guard(monkeypatch):
    # the numerator L(psi, q) divides exactly, with quotient 1, which is no
    # palindrome on q^0 .. q^(4n-4) for n >= 2: only the duality guard fires
    import kummerlat.lefschetz as lef

    def corrupt(aut):
        record = lef._matrix(aut.matrix.data).table(aut.torsion)
        monkeypatch.setattr(record, "tops", {1: (0, list(record.c)), 3: (0, [])})

    aut = catalog(0, "id")  # det h = 1
    corrupt(aut)
    with pytest.raises(ValueError, match="Poincaré duality violated"):
        lef.lefschetz_q(aut)
    # det h = -1 is outside the guard's scope
    monkeypatch.undo()
    aut = torus_automorphism(block_diag(-identity(1), identity(3)), (0, 0, 0, 0), 3)
    corrupt(aut)
    assert lef.lefschetz_q(aut) == lef.LefschetzResult(LaurentPoly.one(), 1)


def _catalog_matrices():
    out = []
    for kind in range(9):
        h = _h_matrix(kind)
        out += [h, -h]
    return out


def test_integer_character_sums_match_cyclotomic_sums():
    # oracle: sigma_w as a sum of roots of unity over the listed fixed
    # characters, 0 for the orders w | n that no fixed character has
    import kummerlat.lefschetz as lef

    rng = random.Random(41)
    matrices = _catalog_matrices() + [random_unimodular(rng, 4) for _ in range(8)]
    for n in range(1, 7):
        divisors = [w for w in range(1, n + 1) if n % w == 0]
        for h in matrices:
            for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                aut = torus_automorphism(h, b, n)
                expected = _character_order_sums(aut)
                _, sums = lef._order_sums(aut)
                assert sorted(sums) == divisors
                assert set(expected) <= set(divisors)
                for w in divisors:
                    assert expected.get(w, 0) == sums[w], (h, b, n, w)


def test_fixed_characters_match_matrix_apply():
    rng = random.Random(43)
    for n in range(1, 7):
        for _ in range(4):
            h = random_unimodular(rng, 4)
            ht = h.transpose()
            expected = [
                CharacterClass(c, n // gcd(*c, n))
                for c in product(range(n), repeat=4)
                if all((x - y) % n == 0 for x, y in zip(apply(ht, c), c))
            ]
            assert fixed_characters(h, n) == expected


def test_det_one_minus_x_matches_principal_minors():
    # the engine's Newton identities on traces and the Faddeev-LeVerrier
    # reference, on the unimodular h and its exterior powers (up to 6 x 6)
    from itertools import combinations

    import kummerlat.lefschetz as lef
    from lefschetz_reference import _det_one_minus_x

    rng = random.Random(47)
    for _ in range(6):
        h = random_unimodular(rng, 4)
        for i in range(5):
            m = exterior_power(h, i)
            expected = [1] + [
                (-1) ** k * sum(exact_det(Matrix([[m.data[a][b] for b in idx] for a in idx]))
                                for idx in combinations(range(m.rows), k))
                for k in range(1, m.rows + 1)
            ]
            assert list(lef._charpoly(m.data)) == expected
            assert _det_one_minus_x(m) == expected


def test_order_tops_match_reference_products():
    # the log/exp evaluation against the factor-by-factor product of wedge series
    import kummerlat.lefschetz as lef

    rng = random.Random(53)
    for h in _catalog_matrices()[::3] + [random_unimodular(rng, 4) for _ in range(3)]:
        psi = h.transpose()
        for n in range(1, 7):
            tops = lef._matrix(h.data).table(n).tops
            for w in range(1, n + 1):
                offset, g = tops.get(w, (0, []))
                top = LaurentPoly(dict(enumerate(g, offset)))
                assert top == _order_product(psi, w, n).coeff(n).shift(2 * n), (h, n, w)


def _table_matrices():
    rng = random.Random(67)
    return _catalog_matrices() + [random_unimodular(rng, 4) for _ in range(4)]


def test_power_sum_table_matches_exterior_powers():
    import kummerlat.lefschetz as lef
    from lefschetz_reference import _det_one_minus_x

    for h in _table_matrices():
        psi = h.transpose()
        c, p = lef._charpoly(h.data), [4]
        table = [lef._wedge_row(c, p, s) for s in range(9)]
        power = identity(4)
        for s in range(9):
            traces = tuple(sum(exterior_power(power, i).data[k][k] for k in range(comb(4, i)))
                           for i in range(5))
            assert table[s] == traces, (h, s)
            power = power @ psi
        # Newton's identities on the power sums tr (wedge^i Psi)^s = E_i(s)
        # give back the wedge polynomials det(1 - x wedge^i Psi)
        for i in range(5):
            d = comb(4, i)
            e = lef._elementary([table[s][i] for s in range(1, d + 1)])
            newton = [(-1) ** k * x for k, x in enumerate(e)]
            assert newton == _det_one_minus_x(exterior_power(psi, i)), (h, i)


def test_integrality_guards(monkeypatch):
    # corrupted power sums or log coefficients leave a nonzero remainder
    import kummerlat.lefschetz as lef

    psi = identity(4)
    power_sums, wedge_row, det = lef._power_sums, lef._wedge_row, lef.exact_det

    def bump_first(c, p, top):
        fresh = len(p) < 2
        power_sums(c, p, top)
        if fresh and top >= 1:
            p[1] += 1

    # p_1 = 5, p_2 = 4: 2 E_2(1) = 5 * 5 - 4 is odd
    monkeypatch.setattr(lef, "_power_sums", bump_first)
    with pytest.raises(ValueError, match="integrality violated: 2 e_2"):
        lef._OrderSeries(lef._charpoly(psi.data)).grow(2)
    with pytest.raises(ValueError, match="integrality violated"):
        lefschetz_q(torus_automorphism(psi, (0, 0, 0, 0), 2))
    monkeypatch.setattr(lef, "_power_sums", power_sums)

    def bump_row(c, p, s):
        row = wedge_row(c, p, s)
        return (row[0] + 1,) + row[1:] if s == 2 else row

    # 2 G_2 = D_1^2 + 2 D_1 + D_2 is even at q^-4 (1 + 0 + 1), odd once E_0(2) moves
    monkeypatch.setattr(lef, "_wedge_row", bump_row)
    with pytest.raises(ValueError, match="integrality violated: 2 G_2"):
        lef._OrderSeries(lef._charpoly(psi.data)).grow(2)
    monkeypatch.setattr(lef, "_wedge_row", wedge_row)

    # 2 H_2 = 2 d_1 + d_2 + d_1^2 = 32 + 1 + 256 for Psi = -1, with d_2 =
    # det(1 - Psi^2) = 0 read as 1
    zero = Matrix([[0] * 4] * 4)
    monkeypatch.setattr(lef, "exact_det", lambda m: 1 if m == zero else det(m))
    with pytest.raises(ValueError, match="integrality violated: 2 H_2"):
        lef._ExpSeries((-psi).data).grow(2)


def _goettsche_soergel(n):
    """Signed Poincare polynomial of K_(n-1)(A), coefficients of q^0 .. q^(4n-4).

    Goettsche-Soergel (Math. Ann. 296, 1993): the sum over the partitions
    alpha of n, with a_i parts of size i, of gcd(alpha)^4 q^(2(n - l(alpha)))
    prod_i S_(a_i) / S_1.  S_a is the signed Poincare polynomial of the
    symmetric product A^(a) (Macdonald): sum_a S_a t^a = (1 - q t)^4
    (1 - q^3 t)^4 / ((1 - t) (1 - q^2 t)^6 (1 - q^4 t)), and S_1 = (1 - q)^4.
    It is the equivariant sum at h = 1, b = 0.
    """
    return goettsche_soergel(identity(4), (0, 0, 0, 0), n)


def test_literature_oracles_for_the_identity():
    # Euler number n^3 sigma(n) and the signed Poincare polynomial of K_(n-1)(A)
    for n in range(2, 13):
        result = lefschetz_q(torus_automorphism(identity(4), (0, 0, 0, 0), n))
        assert result.value == n**3 * sum(d for d in range(1, n + 1) if n % d == 0)
        expected = _goettsche_soergel(n)
        assert result.polynomial == LaurentPoly(dict(enumerate(expected))), n
    assert _goettsche_soergel(3) == [1, 0, 7, -8, 108, -8, 7, 0, 1]
    assert _goettsche_soergel(4)[:7] == [1, 0, 7, -8, 51, -56, 458]


def test_equivariant_goettsche_soergel_sum():
    # an oracle for every (h, b, n) that shares no formula with the engine:
    # the sum over the partitions of n, with brute-force fixed components
    rng = random.Random(73)
    matrices = _catalog_matrices() + [random_unimodular(rng, 4) for _ in range(10)]
    assert {exact_det(h) for h in matrices} == {1, -1}
    for n in range(1, 9):
        for h in matrices:
            for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                expected = LaurentPoly(dict(enumerate(goettsche_soergel(h, b, n))))
                assert lefschetz_q(torus_automorphism(h, b, n)).polynomial == expected, (h, b, n)
    for kind, variant, value in CATALOG_EXPECTED:
        aut = catalog(kind, variant)
        expected = goettsche_soergel(aut.matrix, aut.translation, aut.torsion)
        assert sum(expected) == value, (kind, variant)
        assert lefschetz_q(aut).polynomial == LaurentPoly(dict(enumerate(expected)))


def test_identity_at_the_torsion_bound():
    # no character is listed, so n = 60 (12.96M characters of (Z/60)^4) is quick
    start = time.perf_counter()
    result = lefschetz_q(torus_automorphism(identity(4), (0, 0, 0, 0), 60))
    assert result.value == 60**3 * sum(d for d in range(1, 61) if 60 % d == 0) == 36288000
    assert time.perf_counter() - start < 5


def _ramanujan_sum(d, j):
    """c_d(j), the sum of zeta^j over the primitive d-th roots of unity zeta."""
    g = gcd(d, j)
    return sum(moebius(d // e) * e for e in range(1, g + 1) if g % e == 0)


def test_eigenvalue_multiplicities_partition_the_betti_numbers():
    # psi = t_b o h has finite order N, with psi^j = t_(b_j) o h^j and
    # b_(j+1) = h b_j + b; t_j(k) = (-1)^k [q^k] L(psi^j [n], q) is the trace
    # of psi^[n] ^ j on H^k.  M_d(k) = (1/N) sum_j t_j(k) c_d(j) counts the
    # eigenvalues on H^k that are primitive d-th roots of unity, so it is a
    # non-negative integer, and the M_d(k) add up to the Betti number b_k.
    rng = random.Random(71)
    for n in range(1, 9):
        betti = [(-1) ** k * x for k, x in enumerate(_goettsche_soergel(n))]
        for h in _catalog_matrices():
            for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                traces = orbit_traces(torus_automorphism(h, b, n))  # traces[j][k], j < N
                order = len(traces)
                for k, b_k in enumerate(betti):
                    total = 0
                    for d in range(1, order + 1):
                        if order % d == 0:
                            m_d, r = divmod(sum(t[k] * _ramanujan_sum(d, j)
                                                for j, t in enumerate(traces)), order)
                            assert r == 0 and m_d >= 0, (h, b, n, k, d)
                            total += m_d
                    assert total == b_k, (h, b, n, k)


def test_orbit_averages_are_invariant_betti_numbers():
    # dim H^i(X)^<psi> for the catalog +-h at n <= 12, b = 0 and a seeded b:
    # an integer in [0, b_i(X)], and 1 at i = 0; det h = 1, so psi^[n] is
    # the natural automorphism
    start = time.perf_counter()
    rng = random.Random(97)
    matrices = [h for h in _catalog_matrices() if exact_det(h) == 1]
    assert len(matrices) == 18
    cases = 0
    for n in range(2, 13):
        betti = [(-1) ** i * x for i, x in enumerate(_goettsche_soergel(n))]
        for h in matrices:
            for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                average = orbit_average(torus_automorphism(h, b, n))
                assert average[0] == 1, (h, b, n)
                for i, (x, b_i) in enumerate(zip(average, betti)):
                    assert x.denominator == 1 and 0 <= x <= b_i, (h, b, n, i, x)
                cases += 1
    assert cases == 11 * 18 * 2
    assert time.perf_counter() - start < 2
    with pytest.raises(ValueError, match="^h has infinite order$"):
        orbit_average(torus_automorphism(Matrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                                                 [0, 0, 0, 1]]), (0, 0, 0, 0), 3))


def test_exp_tops_match_factorial_exponential():
    # oracle: exp as sum_j log^j / j! on plain Fraction power series
    from math import factorial

    import kummerlat.lefschetz as lef

    def mul(a, b):
        out = [Fraction(0)] * len(a)
        for i, x in enumerate(a):
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
        return out

    rng = random.Random(59)
    for h in _catalog_matrices()[::2] + [random_unimodular(rng, 4) for _ in range(3)]:
        psi = h.transpose()
        for n in range(1, 6):
            dets = [exact_det(identity(4) - psi ** s) for s in range(1, n + 1)]
            tops = lef._matrix(psi.data).table(n).exp_tops
            exp_one = [Fraction(1)] + [Fraction(0)] * n
            for w in range(1, n + 1):
                product_series = list(exp_one)
                for v in range(1, n // w + 1):
                    log = [Fraction(0)] * (n + 1)
                    for s in range(1, n // (v * w) + 1):
                        log[v * w * s] += Fraction(dets[s - 1], s)
                    exp, power = list(exp_one), list(exp_one)
                    for j in range(1, n + 1):
                        power = mul(power, log)
                        exp = [x + y / factorial(j) for x, y in zip(exp, power)]
                    product_series = mul(product_series, exp)
                assert tops.get(w, 0) == product_series[n], (h, n, w)


def test_profile_memo_is_bounded_and_shared_across_translations(monkeypatch):
    import gc

    import kummerlat.lefschetz as lef

    h = _h_matrix(7)
    record = lef._matrix(h.data).table(3)
    tables = (record.subgroups, record.moebius, record.tops, record.exp_tops)
    for beta in list(product(range(3), repeat=4))[:10]:
        lefschetz_q(torus_automorphism(h, beta, 3))
        corollary_value(torus_automorphism(h, beta, 3))
    # every torus_automorphism reads the record too: the catalog entry of
    # _h_matrix, the table above, 20 automorphisms and 20 calls
    info = lef._matrix.cache_info()
    assert (info.maxsize, info.misses, info.hits, info.currsize) == (32, 1, 41, 1)
    assert all(a is b for a, b in zip(
        tables, (record.subgroups, record.moebius, record.tops, record.exp_tops)))
    del record  # a record held outside the memo keeps its G series alive
    rng = random.Random(61)
    matrices = {random_unimodular(rng, 4) for _ in range(48)}
    for m in matrices:
        lefschetz_q(torus_automorphism(m, (1, 0, 0, 0), 2))
        assert lef._matrix.cache_info().currsize <= 32 and len(lef._ORDER_SERIES) <= 32
    assert len(matrices) > 32 and lef._matrix.cache_info()[2:] == (32, 32)  # maxsize, currsize

    built = []

    class CountedSeries(lef._OrderSeries):
        __slots__ = ()

        def __init__(self, c):
            built.append(c)
            super().__init__(c)

    monkeypatch.setattr(lef, "_OrderSeries", CountedSeries)
    # 24 matrices with 24 distinct c, n-major: each G series is built once
    # and grown in place, although an n-major sweep visits every c per n
    _clear_lefschetz_memos()
    distinct = {}
    while len(distinct) < 24:
        m = random_unimodular(rng, 4)
        distinct.setdefault(lef._charpoly(m.data), m)
    for n in range(2, 7):
        for m in distinct.values():
            lefschetz_q(torus_automorphism(m, (0, 0, 0, 0), n))
    assert len(built) == 24 and set(built) == set(distinct)
    # the 18 matrices of the benchmark sweep over n = 2..6 share 10 c: one
    # record, H series and Smith form per h, one G series per c
    _clear_lefschetz_memos()
    del built[:]
    sweep = _catalog_matrices()
    assert len({lef._charpoly(h.data) for h in sweep}) == 10
    for n in range(2, 7):
        for h in sweep:
            for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                aut = torus_automorphism(h, b, n)
                lefschetz_q(aut)
                corollary_value(aut)
    info = lef._matrix.cache_info()
    assert (info.misses, info.currsize, len(lef._ORDER_SERIES), len(built)) == (18, 18, 10, 10)
    # a G series lives exactly as long as some cached record holds it
    lef._matrix.cache_clear()
    gc.collect()
    assert len(lef._ORDER_SERIES) == 0


def _reference_cases():
    """The 615 cases: the catalog, and n = 1..12 x (18 catalog +-h and 6 random h) x 2 b."""
    rng = random.Random(615)
    cases = [catalog(kind, variant) for kind, variant, _ in CATALOG_EXPECTED]
    matrices = _catalog_matrices() + [random_unimodular(rng, 4) for _ in range(6)]
    for n in range(1, 13):
        for h in matrices:
            for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                cases.append(torus_automorphism(h, b, n))
    return cases


# sha256 of the canonical lines below over the 615 reference cases; a change
# that keeps the outputs keeps this digest
REFERENCE_DIGEST = "870d400ae95ea0e96d5e343109f214315080de8372cb8f9be2c338ffa128bb56"


def _canonical_line(aut) -> str:
    """One case as ``e:type:c,...|type:value|type:corollary``, exponents ascending."""
    result = lefschetz_q(aut)
    cor = corollary_value(aut)
    poly = ",".join(
        f"{e}:{type(c).__name__}:{c}" for e, c in sorted(result.polynomial.coeffs.items())
    )
    return (
        f"{poly}|{type(result.value).__name__}:{result.value}"
        f"|{type(cor).__name__}:{cor}\n"
    )


def test_reference_outputs_digest():
    cases = _reference_cases()
    assert len(cases) == 615
    text = "".join(_canonical_line(aut) for aut in cases)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REFERENCE_DIGEST


def test_outputs_do_not_depend_on_the_order_of_the_calls():
    # the memos grow in whatever order n arrives; each case run cold (all
    # memos cleared) is the oracle for the same case run in a shuffled order
    cases = _reference_cases()
    assert len(cases) == 615
    cold = []
    for aut in cases:
        _clear_lefschetz_memos()
        cold.append((lefschetz_q(aut), corollary_value(aut)))
    _clear_lefschetz_memos()
    order = list(range(len(cases)))
    random.Random(617).shuffle(order)
    for i in order:
        assert (lefschetz_q(cases[i]), corollary_value(cases[i])) == cold[i], cases[i]


def test_series_grown_in_steps_match_series_grown_at_once():
    import kummerlat.lefschetz as lef

    rng = random.Random(619)
    for h in _catalog_matrices()[::5] + [random_unimodular(rng, 4) for _ in range(2)]:
        c = lef._charpoly(h.data)
        far, steps, exp_far = lef._OrderSeries(c), lef._OrderSeries(c), lef._ExpSeries(h.data)
        far.grow(12)
        exp_far.grow(12)
        for k in range(13):
            steps.grow(k)
            assert steps.g == far.g[:k + 1] and steps.logs == far.logs[:k + 1], (h, k)
            straight, exp_straight = lef._OrderSeries(c), lef._ExpSeries(h.data)
            straight.grow(k)
            exp_straight.grow(k)
            assert straight.g[k] == far.g[k] and exp_straight.h[k] == exp_far.h[k], (h, k)
            assert exp_straight.power == h ** k


def test_failed_growth_commits_nothing(monkeypatch):
    import kummerlat.lefschetz as lef

    psi = identity(4)
    series = lef._OrderSeries(lef._charpoly(psi.data))
    series.grow(1)
    before = (list(series.logs), [list(g) for g in series.g], list(series.p), list(series.rows))
    wedge_row = lef._wedge_row

    def bump_row(c, p, s):
        row = wedge_row(c, p, s)
        return (row[0] + 1,) + row[1:] if s == 3 else row

    # G_2 divides exactly before 3 G_3 moves by 1 at q^-6; the power sums
    # up to p_12 and the rows 2 and 3 were computed on the way
    monkeypatch.setattr(lef, "_wedge_row", bump_row)
    with pytest.raises(ValueError, match="integrality violated: 3 G_3"):
        series.grow(3)
    assert (series.logs, series.g, series.p, series.rows) == before
    assert (len(series.p), len(series.rows)) == (5, 2)
    monkeypatch.undo()
    series.grow(3)
    fresh = lef._OrderSeries(lef._charpoly(psi.data))
    fresh.grow(3)
    assert (series.logs, series.g, series.p, series.rows) == (fresh.logs, fresh.g, fresh.p,
                                                              fresh.rows)

    # the H series of Psi = -1 with det(1 - Psi^2) = 0 read as 1
    exp_series = lef._ExpSeries((-psi).data)
    exp_series.grow(1)
    before = (exp_series.power, list(exp_series.dets), list(exp_series.logs), list(exp_series.h))
    zero, det = Matrix([[0] * 4] * 4), lef.exact_det
    monkeypatch.setattr(lef, "exact_det", lambda m: 1 if m == zero else det(m))
    with pytest.raises(ValueError, match="integrality violated: 2 H_2"):
        exp_series.grow(2)
    assert (exp_series.power, exp_series.dets, exp_series.logs, exp_series.h) == before


def test_stepwise_growth_computes_each_power_sum_and_row_once(monkeypatch):
    # the series keeps p_0 .. p_4N and the rows 0 .. N it has: growing one
    # step at a time to N computes each of them once, and the rows equal
    # those of one series grown to N at once
    import kummerlat.lefschetz as lef

    top = 12
    rng = random.Random(71)
    for h in _catalog_matrices()[::4] + [random_unimodular(rng, 4) for _ in range(2)]:
        c = lef._charpoly(h.data)
        once = lef._OrderSeries(c)
        once.grow(top)
        sums, rows = [], []
        power_sums, wedge_row = lef._power_sums, lef._wedge_row

        def counted_sums(c, p, last):
            sums.extend(range(len(p), last + 1))
            power_sums(c, p, last)

        def counted_row(c, p, s):
            rows.append(s)
            return wedge_row(c, p, s)

        monkeypatch.setattr(lef, "_power_sums", counted_sums)
        monkeypatch.setattr(lef, "_wedge_row", counted_row)
        steps = lef._OrderSeries(c)
        for n in range(1, top + 1):
            steps.grow(n)
            assert (len(steps.p), len(steps.rows)) == (4 * n + 1, n + 1), (h, n)
        monkeypatch.undo()
        assert sums == list(range(1, 4 * top + 1)), h
        assert rows == list(range(top + 1)), h
        # each row alone, from fresh power sums
        assert steps.rows == [lef._wedge_row(c, [4], s) for s in range(top + 1)], h
        assert (steps.p, steps.rows, steps.logs, steps.g) == (once.p, once.rows, once.logs,
                                                              once.g), h


def test_divisor_table_matches_a_direct_computation():
    import kummerlat.lefschetz as lef

    lef._divisor_table.cache_clear()
    for n in range(1, MAX_TORSION + 1):
        divisors, terms = lef._divisor_table(n)
        assert divisors == tuple(e for e in range(1, n + 1) if n % e == 0), n
        expected = []
        for w in divisors:
            expected.append((w, tuple((divisors.index(e), moebius(w // e)) for e in divisors
                                      if w % e == 0 and moebius(w // e) != 0)))
        assert terms == tuple(expected), n
        # Moebius inversion: sum_(e | w) moebius(w / e) e = phi(w), and the
        # moebius(w / e) alone sum to [w = 1]
        for w, row in terms:
            assert sum(mu * divisors[i] for i, mu in row) == euler_phi(w), (n, w)
            assert sum(mu for _, mu in row) == (w == 1), (n, w)
        assert lef._divisor_table(n) is lef._divisor_table(n)
    info = lef._divisor_table.cache_info()
    assert (info.maxsize, info.currsize) == (MAX_TORSION, MAX_TORSION)


def test_lookups_of_current_tables_set_no_table(monkeypatch):
    # lefschetz_q and corollary_value set the tables of n once per record
    # and n, and read them as they are after that
    import kummerlat.lefschetz as lef

    calls = []
    table = lef._Matrix.table

    def counted(record, n):
        calls.append(n)
        return table(record, n)

    monkeypatch.setattr(lef._Matrix, "table", counted)
    h = _h_matrix(5)
    for n in (3, 3, 4, 4, 3):
        for b in ((0, 0, 0, 0), (1, 0, 1, 1)):
            aut = torus_automorphism(h, b, n)
            lefschetz_q(aut)
            corollary_value(aut)
    assert calls == [3, 4, 3]


def test_transpose_invariance_of_factors():
    # every determinant entering the product is transpose invariant, so only
    # the fixed character pairing depends on the transpose convention
    from lefschetz_reference import _det_one_minus_x

    rng = random.Random(31)
    for _ in range(8):
        h = random_unimodular(rng, 4)
        for i in range(5):
            assert _det_one_minus_x(exterior_power(h, i)) == _det_one_minus_x(
                exterior_power(h.transpose(), i)
            )
        assert lefschetz_poly_surface(h) == lefschetz_poly_surface(h.transpose())


def test_torus_automorphism_validation():
    with pytest.raises(ValueError):
        torus_automorphism(Matrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                           (0, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        torus_automorphism(identity(3), (0, 0, 0), 3)
    with pytest.raises(ValueError):
        TorusAutomorphism(identity(4), (5, 0, 0, 0), 3)
    aut = torus_automorphism(identity(4), (5, 0, 0, 0), 3)
    assert aut.translation == (2, 0, 0, 0)
    # the torsion order is checked before it is used as a modulus
    for n in (0, -1, MAX_TORSION + 1):
        with pytest.raises(ValueError, match=f"1..{MAX_TORSION}"):
            torus_automorphism(identity(4), (0, 0, 0, 0), n)
        with pytest.raises(ValueError, match=f"1..{MAX_TORSION}"):
            TorusAutomorphism(identity(4), (0, 0, 0, 0), n)
    assert torus_automorphism(-identity(4), (1, 0, 0, 0), MAX_TORSION).torsion == MAX_TORSION
    # a bool is no integer, although True == 1 is in range
    with pytest.raises(ValueError, match=f"^torsion order n must be an integer in 1..{MAX_TORSION}, "
                                         "got True$"):
        TorusAutomorphism(identity(4), (0, 0, 0, 0), True)
    with pytest.raises(ValueError, match="^torsion order n must be an integer"):
        torus_automorphism(identity(4), (0, 0, 0, 0), True)
    with pytest.raises(ValueError, match="^translation coordinates must be residues mod n$"):
        TorusAutomorphism(identity(4), (True, 0, 0, 0), 3)
    with pytest.raises(ValueError,
                       match=r"^translation coordinates must be integers, got \[0, True, 0, 0\]$"):
        torus_automorphism(identity(4), (0, True, 0, 0), 3)
