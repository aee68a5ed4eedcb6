"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line.
Every assertion is exact: integer equality for the golden table and the
classification checks, zero remainder for the polynomial division, and
rationality or integrality asserted with no tolerance.  The property suites
of criterion 5 run at least 200 seeded cases each.

Criterion 6 is a scope note: lattice existence results (genus theory) and
the geometric fixed locus descriptions are not reproducible by computation;
they are covered by the necessary condition checks of criterion 4 and the
Lefschetz values of criterion 1.
"""

import random
import time
from fractions import Fraction
from functools import cache
from math import gcd

from kummerlat.classification import EXPECTED_PAIRS, candidate_pairs, verify_all
from kummerlat.isometries import (
    check_square_theorem,
    check_unimodular_corollary,
    compute_invariants,
)
from kummerlat.lattices import Lattice, Sublattice, orthogonal_complement
from kummerlat.lefschetz import (
    CATALOG_EXPECTED,
    catalog,
    corollary_value,
    lefschetz_poly_surface,
    lefschetz_q,
    run_catalog_table,
    torus_automorphism,
)
from kummerlat.matrix import (
    Matrix,
    exact_det,
    identity,
    integer_kernel,
    moebius,
    smith_normal_form,
    zeros,
)
from kummerlat.pool import base_pool
from cyclotomic_reference import CyclotomicNumber, euler_phi
from isometry_reference import conjugate_isometry, random_unimodular
from lefschetz_reference import LaurentPoly, generating_series
from matrix_reference import apply, saturate_columns
from matrix_reference import smith_normal_form as reference_smith_form

SEED = 20260808
MIN_CASES = 200


def _report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_kummer_golden_table():
    start = time.time()
    report = run_catalog_table()
    mismatches = [
        (e.kind, e.variant, e.value, e.expected) for e in report.entries if e.value != e.expected
    ]
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 60
    print(f"  golden table: {len(report.entries)} entries in {elapsed:.2f}s")
    if mismatches:
        print(f"  mismatches: {mismatches}")
    _report("1 (Kummer golden table, exact integers)", ok)


def test_criterion_2_division_identity():
    ok = True
    for kind, variant, _ in CATALOG_EXPECTED:
        aut = catalog(kind, variant)
        n = aut.torsion
        result = lefschetz_q(aut)  # raises on nonzero remainder already
        # explicit recheck of the formal identity, remainder zero by equality
        numerator = generating_series(aut, n).coeff(n).shift(2 * n)
        surface = LaurentPoly(lefschetz_poly_surface(aut.matrix).coeffs)
        ok = ok and numerator == surface * result.polynomial
        coeffs = LaurentPoly(result.polynomial.coeffs).to_fraction_coeffs()  # raises if irrational
        ok = ok and all(isinstance(c, Fraction) for c in coeffs.values())
        ok = ok and isinstance(result.value, int)
        ok = ok and Fraction(sum(coeffs.values())) == result.value
    _report("2 (exact division identity, rational coefficients, integer value)", ok)


def test_criterion_3_corollary_cross_check():
    ok = True
    zero_cases = 0
    for kind, variant, _ in CATALOG_EXPECTED:
        aut = catalog(kind, variant)
        value = lefschetz_q(aut).value
        l_one = lefschetz_poly_surface(aut.matrix).evaluate_one()
        lhs = corollary_value(aut)
        ok = ok and lhs == Fraction(l_one) * value
        if lhs == 0:
            zero_cases += 1
    ok = ok and zero_cases > 0  # the check is not vacuous: both sides vanish somewhere
    _report("3 (corollary cross-check, including vanishing cases)", ok)


def test_criterion_4_classification():
    report = verify_all()
    pairs_exact = tuple(candidate_pairs()) == EXPECTED_PAIRS
    ok = report.passed and pairs_exact and report.complement_ok
    print(f"  rows: {sum(r.passed for r in report.row_reports)}/8, "
          f"pairs exact: {pairs_exact}, complement: {report.complement_ok}")
    _report("4 (classification table, candidate pairs, (5,3) complement)", ok)


# --- criterion 5: seeded property suites, at least 200 cases each ---------


@cache
def _base_isometries():
    """The base pool's isometries, built once for criteria 5a, 5b and 5c."""
    return tuple(e.isometry for e in base_pool())


def _pool_cases(rng, want, predicate):
    """At least ``want`` pool isometries satisfying ``predicate``."""
    bases = [iso for iso in _base_isometries() if predicate(iso)]
    assert bases
    cases = list(bases)
    small = [iso for iso in bases if iso.lattice.rank <= 16]
    i = 0
    while len(cases) < want:
        src = small[i % len(small)]
        cases.append(conjugate_isometry(src, random_unimodular(rng, src.lattice.rank)))
        i += 1
    return cases


def test_criterion_5a_a_le_m():
    rng = random.Random(SEED)
    cases = _pool_cases(rng, MIN_CASES, lambda iso: True)
    ok = True
    for iso in cases:
        inv = compute_invariants(iso)
        ok = ok and inv.a <= inv.m
    print(f"  cases: {len(cases)}")
    _report("5a (a <= m over the isometry pool)", ok)


def test_criterion_5b_square_theorem():
    rng = random.Random(SEED + 1)
    cases = _pool_cases(rng, MIN_CASES, lambda iso: iso.order != 2)
    ok = True
    primes = set()
    for iso in cases:
        inv = compute_invariants(iso)
        ok = ok and check_square_theorem(inv, iso.order)
        primes.add(iso.order)
    ok = ok and primes >= {3, 5, 7, 23}
    print(f"  cases: {len(cases)}, primes seen: {sorted(primes)}")
    _report("5b (p^m disc(S) is a perfect square)", ok)


def test_criterion_5c_unimodular_corollary():
    rng = random.Random(SEED + 2)
    cases = _pool_cases(
        rng, MIN_CASES, lambda iso: iso.order != 2 and iso.lattice.is_unimodular
    )
    ok = True
    for iso in cases:
        inv = compute_invariants(iso)
        ok = ok and check_unimodular_corollary(inv, iso.order, iso.lattice)
    print(f"  cases: {len(cases)}")
    _report("5c (unimodular corollary: disc = p^a and parity)", ok)


def _random_matrix(rng, rows, cols):
    return Matrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])


def test_criterion_5d_snf_kernel_complement():
    rng = random.Random(SEED + 3)
    ok = True
    for _ in range(MIN_CASES):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        d, v = smith_normal_form(m)
        u, *reference = reference_smith_form(m)
        ok = ok and [d, v] == reference and u @ m @ v == d
        ok = ok and abs(exact_det(u)) == 1 and abs(exact_det(v)) == 1
        diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
        for x, y in zip(diag, diag[1:]):
            ok = ok and ((x == 0 and y == 0) or (x > 0 and y % x == 0))
        k = integer_kernel(m)
        ok = ok and (m @ k) == zeros(m.rows, k.cols)
        if k.cols:
            dk, _ = smith_normal_form(k)
            ok = ok and all(dk.data[i][i] == 1 for i in range(k.cols))
        ok = ok and saturate_columns(k) == k
    # orthogonal complements inside random even lattices
    for _ in range(MIN_CASES):
        n = rng.randint(2, 4)
        while True:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i + 1, n):
                    g[i][j] = g[j][i] = rng.randint(-2, 2)
            gm = Matrix(g)
            if exact_det(gm) != 0:
                break
        lat = Lattice(gm)
        while True:
            cols = rng.randint(1, n - 1)
            b = _random_matrix(rng, n, cols)
            if integer_kernel(b).cols == 0:
                sub = Sublattice(lat, b)
                saturated = Sublattice(lat, saturate_columns(b))
                if exact_det(saturated.basis.transpose() @ lat.gram @ saturated.basis) != 0:
                    break
        comp = orthogonal_complement(sub)
        pairing = sub.basis.transpose() @ lat.gram @ comp.basis
        ok = ok and all(x == 0 for row in pairing.data for x in row)
        ok = ok and saturate_columns(comp.basis) == comp.basis
        ok = ok and sub.rank + comp.rank == n
    _report("5d (SNF, kernel, complement invariants on random input)", ok)


def test_criterion_5e_cyclotomic_axioms():
    rng = random.Random(SEED + 4)
    conductors = [3, 4, 5, 8, 12, 15]
    ok = True

    def rand_elem(n):
        return CyclotomicNumber(
            n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(n))]
        )

    for _ in range(MIN_CASES):
        n = rng.choice(conductors)
        a, b, c = rand_elem(n), rand_elem(n), rand_elem(n)
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        if a != 0:
            ok = ok and a * a.inverse() == 1
    for n in (3, 5, 15):
        total = CyclotomicNumber.from_rational(n, 0)
        for k in range(1, n):
            if gcd(k, n) == 1:
                total = total + CyclotomicNumber.zeta(n, k)
        ok = ok and total == moebius(n)
    _report("5e (cyclotomic field axioms and Galois sums)", ok)


def test_criterion_5f_b_shift_invariance():
    rng = random.Random(SEED + 5)
    matrices = [catalog(kind, "id" if kind == 0 else "h").matrix for kind in range(9)]
    matrices += [-m for m in matrices]
    ok = True
    cases = 0
    while cases < MIN_CASES:
        h = matrices[cases % len(matrices)]
        beta = tuple(rng.randrange(3) for _ in range(4))
        x = tuple(rng.randrange(3) for _ in range(4))
        shift = apply(h - identity(4), x)
        shifted = tuple((b + s) % 3 for b, s in zip(beta, shift))
        v1 = lefschetz_q(torus_automorphism(h, beta, 3)).value
        v2 = lefschetz_q(torus_automorphism(h, shifted, 3)).value
        ok = ok and v1 == v2
        cases += 1
    print(f"  cases: {cases}")
    _report("5f (b-shift invariance of the Lefschetz value)", ok)


def test_criterion_6_scope_note():
    # nothing to compute: existence results and fixed locus geometry are out
    # of scope by design; their numeric shadows are criteria 1 and 4
    _report("6 (scope note: necessary conditions and values only)", True)
