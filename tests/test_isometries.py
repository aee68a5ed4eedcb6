import hashlib
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from math import lcm, prod

import pytest

from kummerlat.isometries import (
    _MAX_SLOT_BITS,
    LatticeIsometry,
    _annihilates,
    _rank_mod,
    check_square_theorem,
    check_unimodular_corollary,
    compute_invariants,
    is_perfect_square,
    overlattice_with_basis,
    transport_isometry,
)
from kummerlat.lattices import (
    Lattice,
    cartan_a,
    direct_sum,
    make_standard,
    signature,
)
from kummerlat.matrix import (
    Matrix,
    block_diag,
    exact_det,
    hstack,
    identity,
    integer_kernel,
    smith_normal_form,
    zeros,
)
from kummerlat.pool import (
    MAX_CONJUGATED_RANK,
    _conjugate,
    _unimodular_steps,
    a_n_glue,
    base_pool,
    block_permutation,
    cyclic_rotation,
    extended_pool,
)
from isometry_reference import (
    conjugate_isometry,
    random_unimodular,
    rational_transport,
    smith_kernel,
)
from matrix_reference import det_fraction, fraction_inverse, fraction_product, integral_matrix
from matrix_reference import smith_normal_form as reference_smith_form

U = make_standard("U")
A4M = make_standard("A4(-1)")
C5 = cyclic_rotation(4)


def test_isometry_validation():
    with pytest.raises(ValueError):
        LatticeIsometry(U, identity(2), 2)  # identity rejected
    with pytest.raises(ValueError):
        LatticeIsometry(U, Matrix([[1, 1], [0, 1]]), 2)  # not an isometry
    with pytest.raises(ValueError):
        LatticeIsometry(A4M, C5, 4)  # order must be prime
    with pytest.raises(ValueError):
        LatticeIsometry(A4M, C5, 3)  # wrong order
    with pytest.raises(ValueError, match="^order p must be an integer, got True$"):
        LatticeIsometry(U, Matrix([[0, 1], [1, 0]]), True)  # a bool is no integer


def test_invariant_lattice_examples():
    # cyclic rotation of A4(-1) fixes nothing
    iso = LatticeIsometry(A4M, C5, 5)
    assert compute_invariants(iso).invariant.rank == 0
    # -id fixes nothing
    assert compute_invariants(LatticeIsometry(U, -identity(2), 2)).invariant.rank == 0
    # swapping the two U summands fixes the diagonal
    uu = direct_sum(U, U)
    swap = block_permutation(2, 2)
    t = compute_invariants(LatticeIsometry(uu, swap, 2)).invariant
    assert t.rank == 2
    for v in t.basis.transpose().data:
        assert v[0] == v[2] and v[1] == v[3]


def test_coinvariant_lattice_examples():
    iso = LatticeIsometry(A4M, C5, 5)
    s = compute_invariants(iso).coinvariant
    assert s.rank == 4 and s.basis == identity(4)
    s2 = compute_invariants(LatticeIsometry(U, -identity(2), 2)).coinvariant
    assert s2.rank == 2
    uu = direct_sum(U, U)
    s3 = compute_invariants(LatticeIsometry(uu, block_permutation(2, 2), 2)).coinvariant
    assert s3.rank == 2
    for v in s3.basis.transpose().data:
        assert v[0] == -v[2] and v[1] == -v[3]


def test_compute_invariants_examples():
    # with T of rank 0 the glue index is 1, so a = 0
    inv = compute_invariants(LatticeIsometry(A4M, C5, 5))
    assert (inv.m, inv.a) == (1, 0)
    assert inv.disc_s == 5 and inv.index == 1
    inv2 = compute_invariants(LatticeIsometry(U, -identity(2), 2))
    assert (inv2.m, inv2.a) == (2, 0)
    # glued overlattice realizes a = 1
    glue = [a_n_glue(4) + tuple(2 * x for x in a_n_glue(4))]
    over, basis = overlattice_with_basis(direct_sum(A4M, A4M), glue)
    phi = transport_isometry(basis, block_diag(identity(4), C5))
    inv3 = compute_invariants(LatticeIsometry(over, phi, 5))
    assert (inv3.m, inv3.a) == (1, 1)
    assert inv3.index == 5 and inv3.disc_s == 5
    phi_cc = transport_isometry(basis, block_diag(C5, C5))
    inv4 = compute_invariants(LatticeIsometry(over, phi_cc, 5))
    assert (inv4.m, inv4.a) == (2, 0)


def test_square_theorem_examples():
    inv = compute_invariants(LatticeIsometry(A4M, C5, 5))
    assert check_square_theorem(inv, 5)  # 5 * 5 = 25
    with pytest.raises(ValueError):
        check_square_theorem(inv, 2)
    # the coinvariant lattice U + H5 of the (1,1) row: 5^1 * 5 = 25
    s_lattice = direct_sum(U, make_standard("H5"))
    assert abs(s_lattice.det) == 5
    assert is_perfect_square(5 * abs(s_lattice.det))


def test_unimodular_corollary():
    inv = compute_invariants(LatticeIsometry(A4M, C5, 5))
    with pytest.raises(ValueError):
        check_unimodular_corollary(inv, 5, A4M)  # disc 5, not unimodular
    # order 3 rotation glued inside a rank 4 unimodular lattice
    a2 = Lattice(cartan_a(2))
    a2m = Lattice(-cartan_a(2))
    over, basis = overlattice_with_basis(direct_sum(a2, a2m), [a_n_glue(2) + a_n_glue(2)])
    assert over.is_unimodular and signature(over) == (2, 2)
    phi = transport_isometry(basis, block_diag(cyclic_rotation(2), identity(2)))
    inv2 = compute_invariants(LatticeIsometry(over, phi, 3))
    assert check_unimodular_corollary(inv2, 3, over)
    assert (inv2.m, inv2.a, inv2.disc_s) == (1, 1, 3)
    # E8(-1)-shaped gluing with Phi_3 minimal polynomial: m = 4, a = 0
    zero2 = (Fraction(0), Fraction(0))
    g2 = a_n_glue(2)
    tetra = [g2 + g2 + g2 + zero2, zero2 + g2 + tuple(2 * x for x in g2) + g2]
    pieces = direct_sum(a2m, a2m, a2m, a2m)
    over8, basis8 = overlattice_with_basis(pieces, tetra)
    assert over8.is_unimodular and signature(over8) == (0, 8)
    c3 = cyclic_rotation(2)
    phi8 = transport_isometry(basis8, block_diag(c3, c3, c3, c3))
    inv8 = compute_invariants(LatticeIsometry(over8, phi8, 3))
    assert (inv8.m, inv8.a, inv8.disc_s) == (4, 0, 1)
    assert check_unimodular_corollary(inv8, 3, over8)


def test_overlattice_by_glue():
    with pytest.raises(ValueError):
        overlattice_with_basis(make_standard("U(5)"), [(Fraction(1, 5), Fraction(1, 5))])
    glue = [a_n_glue(4) + tuple(2 * x for x in a_n_glue(4))]
    over, _ = overlattice_with_basis(direct_sum(A4M, A4M), glue)
    assert over.rank == 8
    assert abs(over.det) == 1  # index 5 in a determinant 25 lattice
    # the q-value decides evenness: (e1 + e2)/2 has q = 0 in <2> + <-2>
    # (accepted) but q = 1 in <2> + <2> (odd overlattice, rejected)
    mixed = direct_sum(Lattice(Matrix([[2]])), make_standard("<-2>"))
    half = [(Fraction(1, 2), Fraction(1, 2))]
    assert abs(overlattice_with_basis(mixed, half)[0].det) == 1
    plus_plus = direct_sum(Lattice(Matrix([[2]])), Lattice(Matrix([[2]])))
    with pytest.raises(ValueError):
        overlattice_with_basis(plus_plus, half)


def test_transport_rejects_nonpreserving():
    glue = [a_n_glue(4) + tuple(2 * x for x in a_n_glue(4))]
    _, basis = overlattice_with_basis(direct_sum(A4M, A4M), glue)
    # the diagram flip negates the glue group on one factor only, moving the
    # glue class out of the overlattice
    flip = Matrix([[int(i + j == 3) for j in range(4)] for i in range(4)])
    assert flip.transpose() @ A4M.gram @ flip == A4M.gram
    with pytest.raises(ValueError):
        transport_isometry(basis, block_diag(flip, identity(4)))


def test_pool_structure_invariants():
    for entry in base_pool():
        iso = entry.isometry
        inv = compute_invariants(iso)
        t, s = inv.invariant, inv.coinvariant
        assert t.rank + s.rank == iso.lattice.rank, entry.name
        pairing = t.basis.transpose() @ iso.lattice.gram @ s.basis
        assert all(x == 0 for row in pairing.data for x in row), entry.name
        assert s.rank % (iso.order - 1) == 0, entry.name
        assert inv.a <= inv.m, entry.name


# (name, p, m, a, disc S, [L : T + S]) of every base_pool entry, in order
BASE_POOL_INVARIANTS = [
    ("cyclic A2(-1)", 3, 1, 0, 3, 1),
    ("cyclic A4(-1)", 5, 1, 0, 5, 1),
    ("cyclic A6(-1)", 7, 1, 0, 7, 1),
    ("cyclic A22(-1)", 23, 1, 0, 23, 1),
    ("-id on U", 2, 2, 0, 1, 1),
    ("-id on E8(-1)", 2, 8, 0, 1, 1),
    ("swap U+U", 2, 2, 2, 4, 4),
    ("swap H5+H5", 2, 2, 2, 20, 4),
    ("shift3 U^3", 3, 2, 2, 9, 9),
    ("shift3 <-2>^3", 3, 1, 1, 12, 3),
    ("shift5 <-2>^5", 5, 1, 1, 80, 5),
    ("shift3 H5^3", 3, 2, 2, 225, 9),
    ("id+C5 on U+A4(-1)", 5, 1, 0, 5, 1),
    ("glued id+C5 (A4(-1)^2)", 5, 1, 1, 5, 5),
    ("glued C5+C5 (A4(-1)^2)", 5, 2, 0, 1, 1),
    ("glued C5+C5^2 (A4(-1)^2)", 5, 2, 0, 1, 1),
    ("glued C3+id (A2+A2(-1))", 3, 1, 1, 3, 3),
    ("glued C5+id (A4+A4(-1))", 5, 1, 1, 5, 5),
    ("glued C5+C5 (A4+A4(-1))", 5, 2, 0, 1, 1),
    ("glued C7+id (A6+A6(-1))", 7, 1, 1, 7, 7),
    ("glued C3^4 (E8(-1) from A2(-1)^4)", 3, 4, 0, 1, 1),
    ("glued C3+C3+id+id (A2(-1)^4 tetra)", 3, 2, 2, 9, 9),
    ("glued C23+id (A22+A22(-1))", 23, 1, 1, 23, 23),
]


def test_base_pool_invariants_golden():
    got = []
    for entry in base_pool():
        inv = compute_invariants(entry.isometry)
        got.append((entry.name, entry.isometry.order, inv.m, inv.a, inv.disc_s, inv.index))
    assert got == BASE_POOL_INVARIANTS


def test_invariants_are_basis_independent():
    rng = random.Random(3)
    for entry in base_pool():
        iso = entry.isometry
        if iso.lattice.rank > 10:
            continue
        inv = compute_invariants(iso)
        conj = conjugate_isometry(iso, random_unimodular(rng, iso.lattice.rank))
        inv2 = compute_invariants(conj)
        assert (inv.m, inv.a, inv.disc_s) == (inv2.m, inv2.a, inv2.disc_s), entry.name


# sha256 over every extended_pool entry, one line each of (name, Gram rows,
# phi rows, order, det), taken while each entry was still built by the
# validating constructors
POOL_DIGESTS = {
    20260808: "4e797de370b451186e8447adb1b1af3665016ef569292e55d798b16c609463d1",
    1: "98ea6c8c6fe6776ea6de99df637f4039de7f92be1709e63985094788d227d61e",
}


@pytest.mark.parametrize("seed", sorted(POOL_DIGESTS))
def test_extended_pool_digest(seed):
    h = hashlib.sha256()
    for entry in extended_pool(seed=seed):
        iso = entry.isometry
        line = (entry.name, iso.lattice.gram.data, iso.matrix.data, iso.order, iso.lattice.det)
        h.update(repr(line).encode() + b"\n")
    assert h.hexdigest() == POOL_DIGESTS[seed]


@pytest.mark.parametrize("seed", [20260808, 1])
def test_trusted_entries_pass_the_validating_constructors(seed):
    # conjugates, direct sums and renames skip the checks; every entry must
    # still be what the validating constructors make of its fields
    for entry in extended_pool(seed=seed):
        iso, lat = entry.isometry, entry.isometry.lattice
        checked = LatticeIsometry(Lattice(lat.gram, lat.name), iso.matrix, iso.order)
        assert checked == iso and checked.lattice.det == lat.det, entry.name


def test_extended_pool_reaches_count():
    pool = extended_pool(seed=1, count=30)
    assert len(pool) >= 30


def test_order_bound_checked_first():
    # p - 1 <= rank holds for every prime order isometry != identity; a huge
    # p is rejected before the primality test and phi ** p can start
    swap = Matrix([[0, 1], [1, 0]])
    start = time.perf_counter()
    for p in (10**18 + 3, 10**9 + 7, 5):
        with pytest.raises(ValueError, match=r"^order \d+ exceeds rank \+ 1 = 3, "):
            LatticeIsometry(U, swap, p)
    assert time.perf_counter() - start < 1
    # the bound is sharp: p - 1 = rank
    assert LatticeIsometry(A4M, C5, 5).order == 5
    assert LatticeIsometry(U, swap, 2).order == 2


# The reference path: Phi_p(phi) as a power sum with one product per term,
# every kernel read off a Smith form (tests/isometry_reference.py) instead of
# the Hermite form of compute_invariants, the index as a determinant, and
# independence of a basis checked by an empty kernel.


def _power_sum(phi, k):
    n = phi.rows
    total = power = identity(n)
    for _ in range(k - 1):
        power = power @ phi
        total = total + power
    return total


def _reference_invariants(iso):
    p, n = iso.order, iso.lattice.rank
    g = iso.lattice.gram
    t = smith_kernel(iso.matrix - identity(n))
    s = smith_kernel(t.transpose() @ g)
    assert smith_kernel(t).cols == 0 and smith_kernel(s).cols == 0
    assert s == smith_kernel(_power_sum(iso.matrix, p))
    assert s.cols % (p - 1) == 0 and t.cols + s.cols == n
    combined = hstack(t, s)
    index = abs(exact_det(combined))
    a = 0
    while index % p ** (a + 1) == 0:
        a += 1
    assert index == p**a
    d, _ = smith_normal_form(combined)
    assert all(d.data[i][i] in (1, p) for i in range(n))
    return t, s, s.cols // (p - 1), a, abs(exact_det(s.transpose() @ g @ s)), index


@pytest.mark.parametrize("seed", [20260808, 1, 4242])
def test_compute_invariants_matches_reference(seed):
    for entry in extended_pool(seed=seed):
        inv = compute_invariants(entry.isometry)
        got = (inv.invariant.basis, inv.coinvariant.basis, inv.m, inv.a, inv.disc_s, inv.index)
        assert got == _reference_invariants(entry.isometry), entry.name


@pytest.mark.parametrize("seed", [20260808, 1])
def test_trace_sum_counts_the_invariant_rank(seed):
    # an oracle that takes no kernel: phi of order p has the eigenvalue 1
    # on T and each primitive p-th root of unity m times, and a primitive
    # root's powers sum to 0 over j < p, so sum_(j<p) tr phi^j = p rank T
    for entry in extended_pool(seed=seed):
        iso = entry.isometry
        phi, p, n = iso.matrix, iso.order, iso.lattice.rank
        traces, power = 0, identity(n)
        for _ in range(p):
            traces += sum(power[i, i] for i in range(n))
            power = power @ phi
        inv = compute_invariants(iso)
        assert traces == p * inv.invariant.rank, entry.name
        assert n - inv.invariant.rank == (p - 1) * inv.m, entry.name


def test_packed_check_matches_power_sum():
    # _annihilates(phi, k, S) decides (1 + phi + ... + phi^(k-1)) S = 0 on
    # rows packed into integers; the right-hand side multiplies the power
    # sum out.  [-2^w u | u] has the true result [-2^w y | y], whose rows
    # all pack to 0 at width w, so a width too narrow for the entries
    # would report 0 wrongly.
    rng = random.Random(5)
    mats = [
        cyclic_rotation(2),
        cyclic_rotation(4),
        cyclic_rotation(6),
        block_permutation(2, 3),
        block_permutation(1, 5),
        block_permutation(3, 2),
        random_unimodular(rng, 4),  # infinite order: the entries grow with k
    ]
    outcomes = Counter()
    for phi in mats:
        n = phi.rows
        u = Matrix([[rng.randint(-3, 3)] for _ in range(n)])
        operands = [
            identity(n),
            phi - identity(n),
            Matrix([[rng.randint(-2**40, 2**40) for _ in range(3)] for _ in range(n)]),
        ]
        operands += [hstack(u.scale(-2**w), u) for w in (8, 16, 24, 64)]
        for k in range(1, 31):
            power_sum = _power_sum(phi, k)
            for s in operands:
                zero = not any(map(any, (power_sum @ s).data))
                assert _annihilates(phi, k, s) == zero, (phi, k, s)
                outcomes[zero] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50
    # the true results have rows 5 (-256, 1) and (-256, 1), which pack to 0
    # at width 8, the width a bound without the factor B^r (first case,
    # B = 129) or without r + 1 (second case, B = 1) would take
    q = identity(5) + Matrix([[0] * 5] * 4 + [[64, 0, 0, 0, 0]])
    q_inverse = identity(5) - Matrix([[0] * 5] * 4 + [[64, 0, 0, 0, 0]])
    traps = [
        (q_inverse @ block_diag(cyclic_rotation(4), identity(1)) @ q,
         Matrix([[-4, 0], [0, 0], [0, 0], [0, 0], [0, 1]])),
        (block_permutation(1, 5), Matrix([[-52, 1], [-51, 0], [-51, 0], [-51, 0], [-51, 0]])),
    ]
    for phi, s in traps:
        assert any(map(any, (_power_sum(phi, 5) @ s).data))
        assert not _annihilates(phi, 5, s), phi


def _order_cases(rng):
    """(lattice, phi, p): the base pool rows, wrong orders, and seeded permutations and blocks."""
    minus_two, a4m = make_standard("<-2>"), make_standard("A4(-1)")
    cases = [(e.isometry.lattice, e.isometry.matrix, e.isometry.order) for e in base_pool()]
    cases += [
        (direct_sum(*[minus_two] * 9), block_permutation(1, 9), 3),  # order p^2
        (a4m, -C5, 5),  # order 2p
        (direct_sum(U, a4m), block_diag(-identity(2), C5), 5),  # order 2p
        (make_standard("H5"), Matrix([[1, 1], [1, 2]]), 3),  # infinite order
    ]
    rotations = {n + 1: (Lattice(-cartan_a(n)), cyclic_rotation(n)) for n in (1, 2, 4, 6)}
    for _ in range(40):
        piece = make_standard(rng.choice(("<-2>", "U", "H5")))
        count = rng.choice((2, 3, 4, 5, 6, 7, 9))
        lattice = direct_sum(*[piece] * count)
        p = rng.choice([q for q in (2, 3, 5, 7) if q <= lattice.rank + 1])
        cases.append((lattice, block_permutation(piece.rank, count), p))
        blocks = [rotations[rng.choice((2, 3, 5, 7))] for _ in range(rng.randint(1, 3))]
        signs = [rng.choice((1, -1)) for _ in blocks]
        lattice = direct_sum(*(lat for lat, _ in blocks))
        phi = block_diag(*(c.scale(sign) for (_, c), sign in zip(blocks, signs)))
        p = rng.choice([q for q in (2, 3, 5, 7) if q <= lattice.rank + 1])
        cases.append((lattice, phi, p))
    return cases


def test_order_check_matches_the_power_ladder():
    # phi^p - 1 = Phi_p(phi) (phi - 1): the packed check of the constructor
    # agrees with phi ** p == 1, also for orders p^2 and 2p, infinite order,
    # and exponents that are not prime
    outcomes = Counter()
    for lattice, phi, p in _order_cases(random.Random(11)):
        one = identity(lattice.rank)
        for k in range(1, 12):
            assert _annihilates(phi, k, phi - one) == (phi ** k == one), (phi, k)
        if phi == one:
            outcome, message = "identity", "order must be prime, matrix != identity"
        elif phi ** p != one:
            outcome, message = "wrong order", f"matrix does not have order {p}"
        else:
            assert LatticeIsometry(lattice, phi, p).matrix == phi
            outcomes["order p"] += 1
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LatticeIsometry(lattice, phi, p)
        outcomes[outcome] += 1
    assert outcomes["order p"] >= 30 and outcomes["wrong order"] >= 30 and outcomes["identity"] >= 2


def test_packed_check_repacks_past_the_slot_cap():
    # a dense conjugate of the A22(-1) rotation: the bound of its 22 Horner
    # steps passes _MAX_SLOT_BITS, so the check unpacks and packs again
    # partway, for the order check of the constructor and for the cross-check
    iso = LatticeIsometry(Lattice(-cartan_a(22)), cyclic_rotation(22), 23)
    conj = conjugate_isometry(iso, random_unimodular(random.Random(2), 22, 110))
    phi, one = conj.matrix, identity(22)
    b = max(sum(map(abs, row)) for row in phi.data)
    m = max(abs(x) for row in (phi - one).data for x in row)
    assert (23 * b**22 * m).bit_length() >= _MAX_SLOT_BITS
    assert LatticeIsometry(conj.lattice, phi, 23).matrix == phi
    assert not _annihilates(phi, 22, phi - one) and not _annihilates(phi, 24, phi - one)
    inv = compute_invariants(conj)
    assert (inv.m, inv.a, inv.disc_s) == (1, 0, 23)
    assert inv.coinvariant.basis == one
    assert _annihilates(phi, 23, one) and not _annihilates(phi, 22, one)
    # phi of infinite order keeps growing its entries over many chunks, and
    # each chunk must take its width from the entries the last one reached
    grow = random_unimodular(random.Random(3), 6, 24)
    s = Matrix([[1, -1]] * 6)
    for k in (100, 200, 300):
        assert _annihilates(grow, k, s) == (not any(map(any, (_power_sum(grow, k) @ s).data))), k


def test_coinvariant_mismatch_on_wrong_order():
    # C5 claimed as order 3: Phi_3(phi) is invertible, so its kernel is 0
    # while the complement of T = 0 is everything
    iso = LatticeIsometry(A4M, C5, 5)
    object.__setattr__(iso, "order", 3)
    with pytest.raises(AssertionError, match="coinvariant mismatch"):
        compute_invariants(iso)


def _corrupted_inputs(seed):
    """Seeded inputs that break the prime order isometry contract, and some that keep it.

    For every base_pool entry of rank <= 8: the isometry with a wrong prime
    order set on it, -phi (of order 2p for odd p), phi P (not an isometry,
    mostly of infinite order) and P^-1 phi P on the unchanged Gram matrix
    (of order p, but not an isometry), for a random unimodular P.
    """
    rng = random.Random(seed)
    inputs = []
    for entry in base_pool():
        iso = entry.isometry
        lattice, phi, p, n = iso.lattice, iso.matrix, iso.order, iso.lattice.rank
        if n > 8:
            continue
        for q in (2, 3, 5, 7):
            if q != p and q - 1 <= n:
                wrong = LatticeIsometry._trusted(lattice, phi, p)
                object.__setattr__(wrong, "order", q)
                inputs.append(wrong)
        unimodular = random_unimodular(rng, n)
        moved = conjugate_isometry(iso, unimodular).matrix
        for psi in (-phi, phi @ unimodular, moved):
            inputs.append(LatticeIsometry._trusted(lattice, psi, p))
    return inputs


def _expected_cross_check(iso):
    """'degenerate', 'mismatch' or 'match', from Smith kernels and a power sum."""
    g, n = iso.lattice.gram, iso.lattice.rank
    t = smith_kernel(iso.matrix - identity(n))
    if t.cols and det_fraction((t.transpose() @ g @ t).data) == 0:
        return "degenerate"
    s = smith_kernel(t.transpose() @ g)
    return "match" if s == smith_kernel(_power_sum(iso.matrix, iso.order)) else "mismatch"


def _cross_check_outcome(iso):
    try:
        compute_invariants(iso)
    except ValueError as exc:
        if str(exc).startswith("form degenerates on the invariant lattice"):
            return "degenerate"
    except AssertionError as exc:
        if str(exc).startswith("coinvariant mismatch: "):
            return "mismatch"
    return "match"  # the cross-check passed; a later check may still raise


@pytest.mark.parametrize("seed", [20260808, 4242])
def test_product_cross_check_matches_smith_kernel(seed):
    # Phi_p(phi) S = 0 must fail exactly when the Smith kernel of the power
    # sum differs from S, on inputs that break the contract in every way
    # that reaches the check
    outcomes = []
    for iso in _corrupted_inputs(seed):
        expected = _expected_cross_check(iso)
        assert _cross_check_outcome(iso) == expected, (iso.matrix, iso.order)
        outcomes.append(expected)
    assert {"match", "mismatch"} <= set(outcomes)
    assert outcomes.count("mismatch") >= 10


def _smith_index(t, s, p):
    """[L : T + S] and n - rank over F_p of [T | S], from the reference Smith form of [T | S]."""
    _, d, _ = reference_smith_form(hstack(t, s))
    factors = [d.data[i][i] for i in range(d.rows)]
    return prod(factors), sum(f % p == 0 for f in factors)


@pytest.mark.parametrize("seed", [20260808, 4242])
def test_index_and_a_match_the_smith_reference(seed):
    # |det T| / [Z^k : T^T G L] is the product of the invariant factors of
    # [T | S], and a = n - rank over F_p of [T | S], for every pool entry
    for entry in extended_pool(seed=seed):
        iso = entry.isometry
        p, n = iso.order, iso.lattice.rank
        inv = compute_invariants(iso)
        t, s = inv.invariant.basis, inv.coinvariant.basis
        assert (inv.index, inv.a) == _smith_index(t, s, p), entry.name
        assert n - _rank_mod(hstack(t, s).data, p) == inv.a, entry.name


@pytest.mark.parametrize("seed", [20260808, 4242])
def test_index_on_corrupted_inputs_matches_the_smith_reference(seed):
    # the index identity needs only a nondegenerate T, not an isometry of
    # order p; compute_invariants agrees wherever it reaches the index
    reached = 0
    for iso in _corrupted_inputs(seed):
        g, n, p = iso.lattice.gram, iso.lattice.rank, iso.order
        t = smith_kernel(iso.matrix - identity(n))
        det_t = int(det_fraction((t.transpose() @ g @ t).data)) if t.cols else 1
        if det_t == 0:
            continue
        s, image_index = integer_kernel(t.transpose() @ g, with_index=True)
        assert s == smith_kernel(t.transpose() @ g)
        index, count = _smith_index(t, s, p)
        assert abs(det_t) == index * image_index, (iso.matrix, p)
        assert n - _rank_mod(hstack(t, s).data, p) == count, (iso.matrix, p)
        try:
            inv = compute_invariants(iso)
        except AssertionError as exc:
            assert str(exc).startswith("coinvariant mismatch: ")
            continue
        assert (inv.index, inv.a) == (index, count), (iso.matrix, p)
        reached += 1
    assert reached >= 10


def test_compute_invariants_does_each_piece_of_work_once(monkeypatch):
    # two kernels (phi - 1 and the pairings with T), no Smith form in any
    # module, one determinant (of T's Gram matrix, when T != 0), and no
    # validated Sublattice
    import kummerlat.isometries as iso_mod
    import kummerlat.matrix as matrix_mod
    from kummerlat.lattices import Sublattice

    pool = base_pool()
    calls = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("integer_kernel", "exact_det"):
        monkeypatch.setattr(iso_mod, name, counting(name, getattr(iso_mod, name)))
    smith = matrix_mod.smith_normal_form
    counted_smith = counting("smith_normal_form", smith)
    for module in [m for name, m in sys.modules.items() if name.startswith("kummerlat")]:
        for attr, value in list(vars(module).items()):
            if value is smith:
                monkeypatch.setattr(module, attr, counted_smith)
    monkeypatch.setattr(Sublattice, "__init__", lambda sub, *args: calls.update(["Sublattice"]))
    # the only matrix products are T^T G and (T^T G) T, and no matrix power
    # is taken: the cross-check of S multiplies no matrices
    products = []
    matmul = Matrix.__matmul__

    def recorded(left, right):
        products.append((left, right))
        return matmul(left, right)

    monkeypatch.setattr(Matrix, "__matmul__", recorded)
    monkeypatch.setattr(Matrix, "__pow__", counting("__pow__", Matrix.__pow__))
    for entry in pool:
        calls.clear()
        products.clear()
        inv = compute_invariants(entry.isometry)
        t, gram = inv.invariant.basis, entry.isometry.lattice.gram
        assert calls == Counter(integer_kernel=2, exact_det=int(t.cols > 0)), entry.name
        want = [(t.transpose(), gram), (matmul(t.transpose(), gram), t)]
        assert products == want[:1 + (t.cols > 0)], entry.name
    # the counting reaches the Smith form wherever it is called from
    matrix_mod.smith_normal_form(identity(2))
    assert calls["smith_normal_form"] == 1


def test_conjugate_isometry_matches_rational_inverse():
    rng = random.Random(11)
    for entry in base_pool():
        iso = entry.isometry
        if iso.lattice.rank > 16:
            continue
        for steps in (12, 40):
            p = random_unimodular(rng, iso.lattice.rank, steps)
            conj = conjugate_isometry(iso, p)
            p_inverse = fraction_inverse(p.data)
            assert conj.matrix == integral_matrix(
                fraction_product(fraction_product(p_inverse, iso.matrix.data), p.data)), entry.name
            assert conj.lattice.gram == p.transpose() @ iso.lattice.gram @ p, entry.name


def test_step_conjugation_matches_the_matrix_route():
    # the pool applies a conjugate's elementary steps to G and phi one at a
    # time; the reference builds P from the same draws, solves P X = I and
    # multiplies P^T G P and P^-1 phi P
    kinds, dropped, cases = Counter(), 0, 0
    for seed in (20260808, 1, 7):
        rng = random.Random(seed)
        for entry in base_pool():
            iso = entry.isometry
            n = iso.lattice.rank
            if n > MAX_CONJUGATED_RANK:
                continue
            for steps in (0, 1, 12, 4 * n):
                state = rng.getstate()
                drawn = _unimodular_steps(rng, n, steps)
                after = rng.getstate()
                rng.setstate(state)
                want = conjugate_isometry(iso, random_unimodular(rng, n, steps))
                assert rng.getstate() == after
                got = _conjugate(iso, drawn)
                assert got == want and got.lattice.det == want.lattice.det, (entry.name, steps)
                kinds.update(kind for kind, *_ in drawn)
                dropped += steps - len(drawn)
                cases += 1
    assert cases == 3 * 4 * 21
    assert set(kinds) == {0, 1, 2} and dropped > 0


def test_random_unimodular_golden():
    # many tests in test_lefschetz.py, test_lattices.py and test_matrix.py
    # take their inputs from this stream of draws
    assert random_unimodular(random.Random(1), 6, 20).data == (
        (0, -1, 0, 0, 0, 0),
        (0, 0, 0, -1, -1, 0),
        (0, 0, 0, 0, 0, 1),
        (5, 0, -2, 0, 1, -8),
        (-2, 0, 1, 0, 0, 4),
        (5, 0, -2, 1, 1, -10),
    )


def test_extended_pool_conjugates_take_no_solve_or_product(monkeypatch):
    # a conjugate is made by elementary steps on G and phi: no basis change
    # is inverted and no matrix product is taken
    import kummerlat.matrix as matrix_mod
    import kummerlat.pool as pool_mod

    base = base_pool()
    monkeypatch.setattr(pool_mod, "base_pool", lambda: base)
    calls = Counter()
    real_solve, real_matmul = matrix_mod.solve, Matrix.__matmul__

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return real_solve(*args, **kwargs)

    def counted_matmul(a, b):
        calls["matmul"] += 1
        return real_matmul(a, b)

    for module in [m for name, m in sys.modules.items() if name.startswith("kummerlat")]:
        for attr, value in list(vars(module).items()):
            if value is real_solve:
                monkeypatch.setattr(module, attr, counted_solve)
    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    pool = extended_pool(seed=20260808)
    assert len(pool) - len(base) == 197
    assert calls == Counter()
    # the counting reaches both wherever they are called from
    matrix_mod.solve(identity(2), identity(2))
    identity(2) @ identity(2)
    assert calls == Counter(solve=1, matmul=1)


@pytest.mark.parametrize("seed", [20260808, 5])
def test_conjugates_hold_plain_ints(seed):
    # P and the conjugates are frozen from int rows as they are, after
    # elementary row and column steps; they must still be exactly what the
    # public constructor makes of their rows
    conjugates = extended_pool(seed=seed)[len(base_pool()):]
    assert conjugates
    rng = random.Random(seed)
    matrices = [random_unimodular(rng, n) for n in range(1, 9)]
    for entry in conjugates:
        matrices += [entry.isometry.matrix, entry.isometry.lattice.gram]
    for m in matrices:
        assert m == Matrix(m.data)
        assert all(type(x) is int for row in m.data for x in row)


def test_conjugate_rejects_non_unimodular():
    iso = LatticeIsometry(A4M, C5, 5)
    bad = [
        block_diag(Matrix([[2]]), identity(3)),  # det 2
        block_diag(Matrix([[1, 1], [1, -1]]), identity(2)),  # det -2
        block_diag(Matrix([[1, 2], [2, 4]]), identity(2)),  # det 0
        zeros(4, 4),
        Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]),  # not square
    ]
    for p in bad:
        with pytest.raises(ValueError, match="^basis change must be unimodular$"):
            conjugate_isometry(iso, p)


def _glued_inputs(monkeypatch):
    """The (pieces, glue) and (basis, phi) inputs of every glued base_pool entry."""
    import kummerlat.pool as pool_mod

    overlattices, transports = [], []
    real_over, real_transport = pool_mod.overlattice_with_basis, pool_mod.transport_isometry

    def over(pieces, glues):
        overlattices.append((pieces, glues))
        return real_over(pieces, glues)

    def transport(basis, phi):
        transports.append((basis, phi))
        return real_transport(basis, phi)

    monkeypatch.setattr(pool_mod, "overlattice_with_basis", over)
    monkeypatch.setattr(pool_mod, "transport_isometry", transport)
    glued = [e for e in base_pool() if e.name.startswith("glued")]
    monkeypatch.undo()
    assert len(overlattices) == len(transports) == len(glued) == 10
    return overlattices, transports


def test_transport_matches_rational_inverse(monkeypatch):
    _, transports = _glued_inputs(monkeypatch)
    for basis, phi in transports:
        assert transport_isometry(basis, phi) == rational_transport(basis.data, phi.data)
    # the same rejections: a non-preserving isometry and a singular basis
    glue = [a_n_glue(4) + tuple(2 * x for x in a_n_glue(4))]
    _, basis = overlattice_with_basis(direct_sum(A4M, A4M), glue)
    flip = Matrix([[int(i + j == 3) for j in range(4)] for i in range(4)])
    singular = [
        (Matrix([[2, 1], [4, 2]]), identity(2)),
        (zeros(2, 2), Matrix([[0, 1], [1, 0]])),
        (Matrix([[3, 6, 0], [6, 12, 0], [0, 0, 1]]), identity(3)),
        # [B | phi B] has full rank, but H has a zero on its diagonal
        (Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [1, 0]])),
    ]
    cases = [("isometry does not preserve the overlattice", basis, block_diag(flip, identity(4)))]
    cases += [("matrix is singular", b, phi) for b, phi in singular]
    for message, b, phi in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            transport_isometry(b, phi)
        with pytest.raises(ValueError, match=f"^{message}$"):
            rational_transport(b.data, phi.data)


def _transport_outcome(f, basis, phi):
    try:
        return f(basis, phi)
    except ValueError as exc:
        return str(exc)


def test_transport_matches_rational_inverse_on_random_bases():
    # generic bases give Hermite forms H with entries above the diagonal;
    # phi is either basis X basis^-1 for an integer X, where that is
    # integral, or a random integer matrix, which mostly does not preserve
    # the lattice.  The library takes the integer den * basis, the reference
    # the rational basis itself.
    rng = random.Random(13)
    outcomes = set()
    for n in range(1, 6):
        for _ in range(30):
            den = rng.choice((1, 2, 3, 6))
            scaled = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            basis = [[Fraction(x, den) for x in row] for row in scaled]
            x = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            phis = [Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], cols=n)]
            if det_fraction(basis):
                try:
                    phis.append(integral_matrix(
                        fraction_product(fraction_product(basis, x), fraction_inverse(basis))))
                except ValueError:
                    pass
            for phi in phis:
                got = _transport_outcome(transport_isometry, Matrix(scaled), phi)
                assert got == _transport_outcome(rational_transport, basis, phi.data), (basis, phi)
                outcomes.add(got if isinstance(got, str) else "integral")
    assert outcomes == {
        "integral",
        "matrix is singular",
        "isometry does not preserve the overlattice",
    }


def test_overlattice_gram_matches_fraction_product(monkeypatch):
    overlattices, _ = _glued_inputs(monkeypatch)
    for pieces, glues in overlattices:
        lattice, basis = overlattice_with_basis(pieces, glues)
        # basis is den * B for the common denominator den of the glue
        den = lcm(*(Fraction(x).denominator for v in glues for x in v))
        assert den > 1
        rational = [[Fraction(x, den) for x in row] for row in basis.data]
        gram = fraction_product(fraction_product(list(zip(*rational)), pieces.gram.data), rational)
        assert lattice.gram == integral_matrix(gram)
    # a Gram matrix that is not integral is rejected with the same message
    with pytest.raises(
        ValueError,
        match="^glue vectors do not define an even integral overlattice: Gram matrix is not integral$",
    ):
        overlattice_with_basis(make_standard("U(5)"), [(Fraction(1, 5), Fraction(1, 5))])


def _split_rescaled(monkeypatch, det_factor, image_factor):
    """Make compute_invariants see det T and [Z^k : T^T G L] multiplied by the given factors.

    The index [L : T + S] is their exact quotient |det T| / [Z^k : T^T G L].
    """
    import kummerlat.isometries as iso_mod

    real = iso_mod._split

    def rescaled(iso):
        t, s, det_t, image_index = real(iso)
        return t, s, det_t * det_factor, image_index * image_factor

    monkeypatch.setattr(iso_mod, "_split", rescaled)


@pytest.mark.parametrize(
    "last, message",
    [
        (0, r"^index \[L : T \+ S\] = 0 is not a power of p = 5$"),
        (10, r"^index \[L : T \+ S\] = 10 is not a power of p = 5$"),
        (25, r"^quotient L/\(T \+ S\) is not p-elementary$"),
    ],
)
def test_index_read_off_the_smith_diagonal(monkeypatch, last, message):
    # the index is |det T| / [Z^k : T^T G L], here 1 / 1 with T = 0, forced
    # to ``last``; an index of 0 raises instead of dividing by p forever, and
    # 25 = 5^2 is not p-elementary, as [T | S] = I has rank 4 != 4 - 2 mod 5
    iso = LatticeIsometry(A4M, C5, 5)
    assert compute_invariants(iso).index == 1
    _split_rescaled(monkeypatch, last, 1)
    with pytest.raises(ValueError, match=message):
        compute_invariants(iso)


def test_image_index_divides_det_t_guard(monkeypatch):
    # [Z^k : T^T G L] divides [Z^k : T^T G T] = |det T|, since T lies in L
    iso = LatticeIsometry(A4M, C5, 5)
    _split_rescaled(monkeypatch, 1, 2)
    with pytest.raises(AssertionError, match=r"^\[Z\^k : T\^T G L\] does not divide \|det T\|$"):
        compute_invariants(iso)


def test_disc_identity_guard(monkeypatch):
    # disc S = |det L| [L : T + S]^2 / |det T| must divide exactly; here
    # |det L| = 1, |det T| = 5 and the index is 5, and scaling det T and the
    # image index by 7 keeps the index and the p-elementary check but makes
    # |det T| = 35, which does not divide 25
    glue = [a_n_glue(4) + tuple(2 * x for x in a_n_glue(4))]
    over, basis = overlattice_with_basis(direct_sum(A4M, A4M), glue)
    iso = LatticeIsometry(over, transport_isometry(basis, block_diag(identity(4), C5)), 5)
    inv = compute_invariants(iso)
    t = inv.invariant.basis
    det_t = exact_det(t.transpose() @ over.gram @ t)
    assert (inv.index, inv.a, over.disc, abs(det_t)) == (5, 1, 1, 5)
    _split_rescaled(monkeypatch, 7, 7)
    message = r"^\|det T\| does not divide \|det L\| \[L : T \+ S\]\^2$"
    with pytest.raises(AssertionError, match=message):
        compute_invariants(iso)
