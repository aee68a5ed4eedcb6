import json
import pathlib
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlat import lattices
from kummerlat.lattices import (
    Lattice,
    Sublattice,
    cartan_a,
    direct_sum,
    discriminant_form,
    discriminant_group,
    fqf_from_diagonal,
    fqf_from_generators,
    fqf_isomorphic,
    group_signature,
    is_p_elementary,
    lattice_from_dict,
    make_standard,
    orthogonal_complement,
    orthogonal_discriminant_form,
    p_primary_part,
    signature,
)
from kummerlat.matrix import Matrix, block_diag, exact_det, factorize, identity, solve
from kummerlat.pool import extended_pool
from isometry_reference import random_unimodular
from lattice_reference import fqf_direct_sum
from lattice_reference import p_primary_part as reference_p_primary_part
from lattice_reference import signature as reference_signature
from lattice_reference import sparse_grams
from matrix_reference import saturate_columns
from matrix_reference import smith_normal_form as reference_smith_form

U = make_standard("U")
H5 = make_standard("H5")
E8M = make_standard("E8(-1)")
A4M = make_standard("A4(-1)")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_standard_lattices():
    assert H5.gram == Matrix([[2, 1], [1, -2]])
    assert U.gram == Matrix([[0, 1], [1, 0]])
    assert make_standard("U(5)").gram == Matrix([[0, 5], [5, 0]])
    assert make_standard("<-2>").gram == Matrix([[-2]])
    assert abs(make_standard("A4*(-5)").det) == 125
    assert make_standard("A4(-5)").gram == cartan_a(4).scale(-5)
    assert E8M.det == 1


def test_standard_lattices_are_built_once_per_stripped_name():
    assert make_standard(" U(5) ") is make_standard("U(5)") is make_standard("U(5)")
    assert make_standard("U(5)").name == "U(5)"


@pytest.mark.parametrize("name", ["B3", "U(0)", "<3>", "<0>", "A5(-1)"])
def test_standard_rejects_unknown_or_odd(name):
    with pytest.raises(ValueError):
        make_standard(name)


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(Matrix([[1]]))  # odd
    with pytest.raises(ValueError):
        Lattice(Matrix([[0, 1], [2, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        Lattice(Matrix([[2, 2], [2, 2]]))  # degenerate


def test_lattice_det_is_computed_once(monkeypatch):
    # the nondegeneracy check computes det; reading it later computes nothing
    calls = []
    real = lattices.exact_det

    def counted(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(lattices, "exact_det", counted)
    lat = Lattice(E8M.gram, "E8(-1)")
    assert calls == [(8, 8)]
    assert (lat.det, lat.disc, lat.is_unimodular) == (1, 1, True) and lat.det == 1
    assert repr(lat) == "Lattice(E8(-1), det=1)"
    assert len(calls) == 1
    # det takes no part in equality and hashing
    assert lat == E8M and hash(lat) == hash(E8M)
    assert Lattice(Matrix([])).det == 1


def test_direct_sum():
    s = direct_sum(U, H5)
    assert s.rank == 4
    assert s.det == 5
    assert direct_sum(make_standard("<-2>"), make_standard("<-2>")).gram == Matrix(
        [[-2, 0], [0, -2]]
    )
    empty = direct_sum()
    assert (empty.rank, empty.det, empty.name) == (0, 1, None)
    assert direct_sum(H5, empty).gram == H5.gram
    # direct_sum multiplies the blocks' det instead of taking a determinant
    names = ["U", "U(3)", "U(-2)", "E8(-1)", "A4(-1)", "A4(-5)", "A4*(-5)", "H5",
             "<-2>", "<4>", "<-10>"]
    rng = random.Random(20261019)
    for _ in range(40):
        parts = [make_standard(rng.choice(names)) for _ in range(rng.randint(1, 5))]
        s = direct_sum(*parts)
        assert s.det == exact_det(block_diag(*(lat.gram for lat in parts))), s.name
        assert s == Lattice(s.gram, s.name)


def test_rescale():
    assert Lattice(U.gram.scale(5)).gram == Matrix([[0, 5], [5, 0]])
    assert Lattice(make_standard("<-2>").gram.scale(5)).gram == Matrix([[-10]])
    # the dual of A4 rescaled by -5 is integral: 5 A4^-1 is integral, negated
    assert make_standard("A4*(-5)").gram == Matrix(
        [[-4, -3, -2, -1], [-3, -6, -4, -2], [-2, -4, -6, -3], [-1, -2, -3, -4]]
    )
    with pytest.raises(ValueError, match="^solution is not integral$"):
        solve(H5.gram, identity(2))  # the dual Gram matrix H5^-1 has denominator 5


def test_signatures():
    assert signature(U) == (1, 1)
    assert signature(E8M) == (0, 8)
    big = direct_sum(U, U, U, E8M, E8M, make_standard("<-2>"))
    assert signature(big) == (3, 20)
    assert signature(H5) == (1, 1)
    assert signature(make_standard("A4*(-5)")) == (0, 4)


def test_signature_rescale_behavior():
    for lat in (U, H5, A4M):
        plus, minus = signature(lat)
        tripled, negated = Lattice(lat.gram.scale(3)), Lattice(lat.gram.scale(-2))
        assert signature(tripled) == (plus, minus)
        assert signature(negated) == (minus, plus)
        assert tripled.det == 3 ** lat.rank * lat.det


def test_discriminant_groups():
    assert discriminant_group(U) == ()
    assert discriminant_group(H5) == (5,)
    assert discriminant_group(make_standard("<-2>")) == (2,)
    assert discriminant_group(direct_sum(make_standard("U(5)"), make_standard("<-10>"))) == (
        5,
        5,
        10,
    )


def test_discriminant_group_order_matches_det():
    for lat in (U, H5, E8M, A4M, make_standard("A4*(-5)"), make_standard("U(5)")):
        assert prod(discriminant_group(lat)) == lat.disc


def test_discriminant_forms():
    f = discriminant_form(make_standard("<-2>"))
    assert f.orders == (2,) and f.q_values == (Fraction(3, 2),)
    f10 = discriminant_form(make_standard("<-10>"))
    assert f10.orders == (10,) and f10.q_values == (Fraction(19, 10),)  # -1/10 mod 2
    fu5 = discriminant_form(make_standard("U(5)"))
    assert fu5.orders == (5, 5)
    assert fu5.q_values == (Fraction(0), Fraction(0))
    assert fu5.b_matrix[0][1] == Fraction(1, 5)


def _pairing(lat, x, y):
    """x^T G y for rational coordinate vectors x, y: the oracle for the discriminant form."""
    return sum(
        xi * lat.gram.data[i][j] * yj
        for i, xi in enumerate(x)
        for j, yj in enumerate(y)
        if xi and lat.gram.data[i][j] and yj
    )


def _generators(lat):
    """The dual vectors v_j / d_j over d_j > 1, in lattice coordinates, generating the
    discriminant group, from the reference Smith form U G V = D."""
    _, d, v = reference_smith_form(lat.gram)
    return tuple(tuple(Fraction(x, d.data[j][j]) for x in column)
                 for j, column in enumerate(v.transpose().data) if d.data[j][j] > 1)


def test_form_consistency_identity():
    # q(x + y) - q(x) - q(y) = 2 b(x, y) on all generator pairs
    for lat in (H5, make_standard("U(5)"), make_standard("A4*(-5)"), A4M):
        lat_form = discriminant_form(lat)
        gens = _generators(lat)
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                both = tuple(a + b for a, b in zip(gi, gj))
                lhs = _pairing(lat, both, both) - _pairing(lat, gi, gi) - _pairing(lat, gj, gj)
                lhs %= 2
                assert lhs == (2 * lat_form.b_matrix[i][j]) % 2


def test_discriminant_form_matches_pairing_of_generators():
    # q and b read off the integer V^T G V agree with x^T G y on the Fraction
    # generators v_j / d_j of the Smith columns
    rng = random.Random(157)
    lattices_ = [_random_even_lattice(rng, rng.randint(1, 5), max_det=10**6) for _ in range(60)]
    lattices_ += [make_standard("A4*(-5)"), make_standard("U(5)"),
                  direct_sum(H5, make_standard("<-10>"))]
    for lat in lattices_:
        form = discriminant_form(lat)
        gens = _generators(lat)
        assert form.orders == discriminant_group(lat)
        assert form.q_values == tuple(_pairing(lat, g, g) % 2 for g in gens), lat
        b = tuple(tuple(_pairing(lat, g, h) % 1 for h in gens) for g in gens)
        assert form.b_matrix == b, lat


def test_p_elementary():
    assert is_p_elementary(discriminant_group(H5), 5) == (True, 1)
    assert is_p_elementary(discriminant_group(U), 5) == (True, 0)
    assert is_p_elementary(discriminant_group(make_standard("<-10>")), 5) == (False, None)
    assert is_p_elementary(discriminant_form(make_standard("A4*(-5)")).orders, 5) == (True, 3)


def test_orthogonal_complements():
    uu = direct_sum(U, U)
    first = Sublattice(uu, Matrix([[1, 0], [0, 1], [0, 0], [0, 0]]))
    comp = orthogonal_complement(first)
    assert comp.basis == Matrix([[0, 0], [0, 0], [1, 0], [0, 1]])
    # span{e1 + e2} inside U pairs as x + y = 0
    diag = Sublattice(U, Matrix([[1], [1]]))
    assert orthogonal_complement(diag).basis == Matrix([[1], [-1]])
    # diagonal A4(-1) inside A4(-1)^2 has the antidiagonal as complement
    a8 = direct_sum(A4M, A4M)
    diag4 = Sublattice(a8, Matrix([[int(i == j) for j in range(4)] for i in range(4)] * 2))
    comp4 = orthogonal_complement(diag4)
    assert comp4.rank == 4
    top = Matrix([row[:] for row in comp4.basis.to_lists()[:4]])
    bottom = Matrix([row[:] for row in comp4.basis.to_lists()[4:]])
    assert top == -bottom


def test_complement_pairing_and_saturation():
    sub = Sublattice(direct_sum(U, H5), Matrix([[1], [2], [3], [4]]))
    comp = orthogonal_complement(sub)
    assert (sub.basis.transpose() @ sub.ambient.gram @ comp.basis).data == ((0, 0, 0),)
    doubled = Sublattice(U, Matrix([[2], [0]]))
    assert Sublattice(U, saturate_columns(doubled.basis)).basis == Matrix([[1], [0]])


def test_orthogonal_complement_skips_the_independence_check(monkeypatch):
    # the kernel basis is independent by construction, so the complement takes
    # no det(B^T B); it must still be what the validating constructor makes of it
    uu, a8 = direct_sum(U, U), direct_sum(A4M, A4M)
    subs = [
        Sublattice(uu, Matrix([[1, 0], [0, 1], [0, 0], [0, 0]])),
        Sublattice(U, Matrix([[1], [1]])),
        Sublattice(a8, Matrix([[int(i == j) for j in range(4)] for i in range(4)] * 2)),
        Sublattice(direct_sum(U, H5), Matrix([[1], [2], [3], [4]])),
        Sublattice(U, identity(2)),  # the complement has rank 0
        Sublattice(H5, Matrix([[], []], cols=0)),  # the complement is all of H5
    ]
    validated = []
    real_init = Sublattice.__init__

    def counting_init(sub, *args):
        validated.append(args)
        real_init(sub, *args)

    monkeypatch.setattr(Sublattice, "__init__", counting_init)
    comps = [orthogonal_complement(sub) for sub in subs]
    assert validated == []
    monkeypatch.undo()
    assert [c.rank for c in comps] == [2, 1, 4, 3, 0, 2]
    for sub, comp in zip(subs, comps):
        assert comp == Sublattice(sub.ambient, comp.basis)


def test_sublattice_validation():
    uh5 = direct_sum(U, H5)
    dependent = [
        (U, Matrix([[1, 2], [1, 2]])),  # dependent columns
        (U, Matrix([[1, 0, 1], [0, 1, 1]])),  # more columns than rows
        (U, Matrix([[1, 0], [0, 0]])),  # a zero column
        (uh5, Matrix([[1, 0, 1], [0, 1, 1], [2, 0, 2], [0, 3, 3]])),  # rank 2 in rank 4
    ]
    for ambient, basis in dependent:
        with pytest.raises(ValueError, match="basis columns are dependent"):
            Sublattice(ambient, basis)
    assert Sublattice(uh5, Matrix([[1, 0], [0, 1], [2, 0], [0, 3]])).rank == 2
    assert Sublattice(U, Matrix([[], []], cols=0)).rank == 0


def test_signature_invariance_under_basis_change():
    rng = random.Random(7)
    for lat in (H5, direct_sum(U, H5), A4M):
        base_sig = signature(lat)
        for _ in range(8):
            p = random_unimodular(rng, lat.rank)
            conj = Lattice(p.transpose() @ lat.gram @ p)
            assert signature(conj) == base_sig
            assert conj.det == lat.det


def test_signature_matches_fraction_reference():
    # random nondegenerate even Gram matrices up to rank 24; an all-zero
    # diagonal forces a hyperbolic pivot first, a sparse one mixes both kinds
    rng = random.Random(24)
    hyperbolic_first = 0
    for n in [*range(1, 13), 16, 20, 24]:
        for zero_share in (0.0, 0.5, 1.0) if n > 1 else (0.0,):
            while True:
                g = [[0] * n for _ in range(n)]
                for i in range(n):
                    if rng.random() >= zero_share:
                        g[i][i] = 2 * rng.choice((-3, -2, -1, 1, 2, 3))
                    for j in range(i + 1, n):
                        g[i][j] = g[j][i] = rng.choice((0, 0, 0, -2, -1, 1, 2, 7))
                if exact_det(Matrix(g)):
                    break
            lat = Lattice(Matrix(g))
            hyperbolic_first += all(g[i][i] == 0 for i in range(n))
            assert signature(lat) == reference_signature(lat), g
    assert hyperbolic_first >= 14
    # rank 200 to 256: signature reads each block, and the elimination of
    # the whole Gram matrix leaves the rows of later blocks waiting
    for g in sparse_grams(15):
        lat = Lattice(g)
        expected = reference_signature(lat)
        assert signature(lat) == expected, g
        assert lattices._block_signature(g.data) == expected, g


def test_signature_at_the_rank_bound_stays_fast():
    # A_256, the tridiagonal block at lattices.MAX_RANK: eager rescaling of
    # the rows below the band took about 0.6 s for the two eliminations
    gram = cartan_a(lattices.MAX_RANK)
    start = time.perf_counter()
    lat = Lattice(gram)
    assert lattices._block_signature.__wrapped__(gram.data) == (lattices.MAX_RANK, 0)
    assert time.perf_counter() - start < 0.5
    assert lat.det == lattices.MAX_RANK + 1


def test_signature_congruence_step_matches_fraction_reference():
    # a block with zero diagonal after a block with pivots: the integer version
    # reaches a zero diagonal with prev != 1 and applies e_d -> e_d + e_j there
    rng = random.Random(29)

    def block(n, zero_diagonal):
        while True:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                if not zero_diagonal:
                    g[i][i] = 2 * rng.choice((-3, -2, -1, 1, 2, 3))
                for j in range(i + 1, n):
                    g[i][j] = g[j][i] = rng.choice((0, -2, -1, 1, 2, 7))
            if exact_det(Matrix(g)):
                return Lattice(Matrix(g))

    for _ in range(40):
        lat = direct_sum(block(rng.randint(1, 4), False), block(2 * rng.randint(1, 3), True))
        assert signature(lat) == reference_signature(lat), lat.gram
        # signature splits the sum into its blocks; the elimination itself
        # must also handle both blocks at once
        assert lattices._block_signature(lat.gram.data) == reference_signature(lat), lat.gram


BLOCK_NAMES = ("U", "U(5)", "U(-3)", "H5", "<-2>", "<-10>", "<4>", "A4(-1)", "A4(-5)", "A4*(-5)",
               "E8(-1)")


def _shuffled_sums(seed: int, count: int) -> list[Lattice]:
    """Sums of 0 to 4 standard lattices, each basis in a seeded random order, so blocks interleave."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lat = direct_sum(*(make_standard(rng.choice(BLOCK_NAMES)) for _ in range(rng.randrange(5))))
        order = list(range(lat.rank))
        rng.shuffle(order)
        out.append(Lattice(Matrix([[lat.gram.data[i][j] for j in order] for i in order])))
    return out


def _block_path_cases(source: str) -> list[Lattice]:
    if source == "shuffled sums":
        cases = _shuffled_sums(20261020, 200)
        ranks = Counter(lat.rank for lat in cases)
        assert ranks[0] and ranks[1]
        # some sum interleaves its blocks: a block of more than one index is not contiguous
        assert any(any(b[-1] - b[0] >= len(b) for b in _block_indices(lat)) for lat in cases)
        return cases
    if source == "extended pool":
        return [entry.isometry.lattice for entry in extended_pool()]
    entries = json.loads((GOLDEN / "lattice_info.json").read_text(encoding="utf-8"))
    return [lattice_from_dict(entry["job"]) for entry in entries]


def _block_indices(lat: Lattice) -> list[list[int]]:
    """The index sets of the connected Gram blocks, by a union-find on g_ij != 0."""
    parent = list(range(lat.rank))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, row in enumerate(lat.gram.data):
        for j, x in enumerate(row):
            if x:
                parent[root(i)] = root(j)
    blocks: dict[int, list[int]] = {}
    for i in range(lat.rank):
        blocks.setdefault(root(i), []).append(i)
    return list(blocks.values())


@pytest.mark.parametrize("source", ["shuffled sums", "extended pool", "golden lattice info"])
def test_block_invariants_match_whole_gram_invariants(source):
    # the blockwise signature and discriminant group against the rational
    # elimination and the whole-Gram Smith form of discriminant_form
    cases = _block_path_cases(source)
    assert len(cases) >= 24
    for lat in cases:
        assert signature(lat) == reference_signature(lat), lat.gram
        assert discriminant_group(lat) == discriminant_form(lat).orders, lat.gram
        blocks = _block_indices(lat)
        assert sorted(map(len, blocks)) == sorted(map(len, lattices._blocks(lat.gram)))


@pytest.mark.parametrize("source", ["shuffled sums", "extended pool", "golden lattice info"])
def test_orthogonal_form_is_isometric_to_the_whole_gram_form(source, monkeypatch):
    # the block-by-block presentation against the whole-Gram Smith columns;
    # the cap bounds the enumeration of searched parts, and here every
    # 2-part has order at most 4^4 while the odd parts, up to 5^12, are
    # decided by their Jordan invariants
    monkeypatch.setattr(lattices, "FQF_ORDER_CAP", 10**12)
    cases = _block_path_cases(source)
    assert len(cases) >= 24
    presented_apart = 0
    for lat in cases:
        blockwise, whole = orthogonal_discriminant_form(lat), discriminant_form(lat)
        assert blockwise.group_order == whole.group_order == lat.disc, lat.gram
        assert fqf_isomorphic(blockwise, whole), lat.gram
        presented_apart += blockwise != whole
    assert presented_apart


def test_fqf_isomorphism_examples():
    target = fqf_from_diagonal(
        [(5, Fraction(-2, 5)), (5, Fraction(4, 5)), (5, Fraction(4, 5)), (2, Fraction(-1, 2))]
    )
    t = direct_sum(make_standard("U(5)"), make_standard("<-10>"))
    assert fqf_isomorphic(discriminant_form(t), target)
    assert fqf_isomorphic(target, target)
    # exhausting unit squares mod 5: no u with 2 u^2 = 4 mod 10
    assert not fqf_isomorphic(
        fqf_from_diagonal([(5, Fraction(2, 5))]), fqf_from_diagonal([(5, Fraction(4, 5))])
    )
    bad = direct_sum(make_standard("U(5)"), make_standard("<-2>"))
    assert not fqf_isomorphic(discriminant_form(bad), target)


def test_fqf_isomorphism_cap():
    big = fqf_from_diagonal([(10, Fraction(1, 10))] * 5)
    with pytest.raises(ValueError):
        fqf_isomorphic(big, big)


def test_generation_check_reduces_the_determinant_mod_p():
    # on the zero form of (Z/3)^2 the images (2, 1) and (1, 2) pair correctly
    # but do not generate: their integer determinant 3 is 0 mod 3
    zero = [[0, 0], [0, 0]]
    assert lattices._extend([], [[((2, 1), (0, 0))], [((1, 2), (0, 0))]], zero, 1, 3) is False
    assert lattices._extend([], [[((1, 0), (0, 0))], [((1, 2), (0, 0))]], zero, 1, 3) is True


def _random_even_lattice(rng, n, max_det=400):
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        m = Matrix(g)
        d = exact_det(m)
        if d != 0 and abs(d) <= max_det:
            return Lattice(m)


def test_fqf_isomorphism_equivalence_relation():
    rng = random.Random(11)
    forms = [discriminant_form(_random_even_lattice(rng, rng.randint(1, 3))) for _ in range(12)]
    for f in forms:
        assert fqf_isomorphic(f, f)
    for f in forms:
        for g in forms:
            assert fqf_isomorphic(f, g) == fqf_isomorphic(g, f)
    # spot-check transitivity on the pairs that match
    for f in forms:
        related = [g for g in forms if fqf_isomorphic(f, g)]
        for g in related:
            for h in related:
                assert fqf_isomorphic(g, h)


# ---------------------------------------------------------------------------
# reference isomorphism test: backtracking on Fraction values, no census and
# no forward checking; the integer search must give the same answers


def _ref_element_order(elem, orders):
    return max((d // gcd(a, d) for a, d in zip(elem, orders)), default=1)


def _q_of(elem, form):
    total = Fraction(0)
    k = len(elem)
    for i in range(k):
        ai = elem[i]
        if ai:
            total += ai * ai * form.q_values[i]
            for j in range(i + 1, k):
                if elem[j]:
                    total += 2 * ai * elem[j] * form.b_matrix[i][j]
    return total % 2


def _b_of(x, y, form):
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            row = form.b_matrix[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    total += xi * yj * row[j]
    return total % 1


def _reference_p_isomorphic(f1, f2, p):
    k = len(f1.orders)
    if f1.orders != f2.orders:
        return False
    if k == 0:
        return True
    by_order_q = {}
    for e in product(*(range(o) for o in f2.orders)):
        key = (_ref_element_order(e, f2.orders), _q_of(e, f2))
        by_order_q.setdefault(key, []).append(e)
    chosen = []

    def backtrack(i):
        if i == k:
            return exact_det(Matrix(zip(*chosen))) % p != 0
        for cand in by_order_q.get((f1.orders[i], f1.q_values[i]), ()):
            if all(_b_of(cand, chosen[j], f2) == f1.b_matrix[i][j] for j in range(i)):
                chosen.append(cand)
                if backtrack(i + 1):
                    return True
                chosen.pop()
        return False

    return backtrack(0)


def _reference_isomorphic(f1, f2):
    if f1.group_order != f2.group_order:
        return False
    sig1 = group_signature(f1.orders)
    if sig1 != group_signature(f2.orders):
        return False
    return all(
        _reference_p_isomorphic(reference_p_primary_part(f1, p), reference_p_primary_part(f2, p), p)
        for p in sig1
    )


def _rebased(form, u):
    """The same form on the generators h_j = sum_i u[i][j] g_i (equal orders, u unimodular)."""
    assert len(set(form.orders)) == 1
    k = len(form.orders)
    b = [
        [sum(u[i][j] * u[l][t] * form.b_matrix[i][l] for i in range(k) for l in range(k))
         for t in range(k)]
        for j in range(k)
    ]
    q = [
        b[j][j] + sum(u[i][j] ** 2 * (form.q_values[i] - form.b_matrix[i][i]) for i in range(k))
        for j in range(k)
    ]
    return fqf_from_generators(form.orders, q, b)


def _nonsquare(p):
    return next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)


def _cyclic_q(rng, d):
    """A well-defined q on Z/d with gcd(numerator, d) = 1."""
    while True:
        a = rng.randrange(1, 2 * d)
        if gcd(a, d) == 1 and (d % 2 or a % 2):
            return Fraction(a, d) if d % 2 == 0 else Fraction(2 * a, d)


def _census_and_search_agree(pairs, monkeypatch):
    """Assert agreement with the reference; count census rejections and searches."""
    calls = []
    search = lattices._extend

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(lattices, "_extend", counted)
    rejected = searched = 0
    for f1, f2 in pairs:
        before = len(calls)
        got = fqf_isomorphic(f1, f2)
        assert got == _reference_isomorphic(f1, f2), (f1, f2)
        if len(calls) > before:
            searched += 1
        elif not got and group_signature(f1.orders) == group_signature(f2.orders):
            rejected += 1
    return rejected, searched


def _discriminant_pool():
    rng = random.Random(20260808)
    return [
        discriminant_form(_random_even_lattice(rng, rng.randint(1, 3), max_det=200))
        for _ in range(100)
    ]


def _rebased_pool():
    rng = random.Random(5)
    pairs = []
    for d in (2, 3, 4, 5, 7, 8, 9):
        for k in (1, 2, 3):
            if d ** k > 400:
                continue
            diag = fqf_from_diagonal([(d, _cyclic_q(rng, d)) for _ in range(k)])
            u = [list(r) for r in random_unimodular(rng, k).data]
            other = fqf_from_diagonal([(d, _cyclic_q(rng, d)) for _ in range(k)])
            rebased = _rebased(diag, u)
            pairs += [(diag, rebased), (rebased, diag), (other, rebased)]
    # an orthogonal sum of rebased blocks of different orders
    z5 = fqf_from_diagonal([(5, Fraction(2, 5)), (5, Fraction(4, 5))])
    z4 = fqf_from_diagonal([(4, Fraction(1, 4)), (4, Fraction(3, 4))])
    mixed = fqf_direct_sum(_rebased(z4, [[1, 1], [0, 1]]), _rebased(z5, [[2, 1], [1, 1]]))
    pairs += [(fqf_direct_sum(z5, z4), mixed), (mixed, fqf_direct_sum(z4, z5))]
    return pairs


def _twisted_pool():
    rng = random.Random(3)
    pairs = []
    for p in (3, 5, 7):
        nu = _nonsquare(p)
        for k in (1, 2, 3):
            squares = [rng.randrange(1, p) ** 2 % p for _ in range(k)]
            plain = fqf_from_diagonal([(p, Fraction(2 * a, p)) for a in squares])
            twisted = fqf_from_diagonal(
                [(p, Fraction(2 * squares[0] * nu, p))] + [(p, Fraction(2 * a, p)) for a in squares[1:]]
            )
            pairs += [(plain, twisted), (twisted, plain)]
    return pairs


def test_fqf_isomorphic_matches_reference_on_discriminant_forms(monkeypatch):
    forms = _discriminant_pool()
    pairs = [(f, g) for f in forms for g in forms if f.group_order == g.group_order]
    assert len(pairs) > 500
    rejected, searched = _census_and_search_agree(pairs, monkeypatch)
    assert rejected > 0 and searched > 0
    assert any(_reference_isomorphic(f, g) for f, g in pairs if f is not g)
    assert any(not _reference_isomorphic(f, g) for f, g in pairs)


def test_fqf_isomorphic_matches_reference_on_rebased_forms(monkeypatch):
    pairs = _rebased_pool()
    rejected, searched = _census_and_search_agree(pairs, monkeypatch)
    assert rejected > 0 and searched > 0
    assert fqf_isomorphic(*pairs[-2])  # the rebased orthogonal sum


def test_fqf_isomorphic_matches_reference_on_twisted_pairs(monkeypatch):
    pairs = _twisted_pool()
    rejected, searched = _census_and_search_agree(pairs, monkeypatch)
    assert rejected == len(pairs) and searched == 0


def _is_well_defined(orders, q_values):
    """Whether the diagonal form of (orders, q_values) is well defined: o^2 q even, o b integral."""
    return all(o * o * q % 2 == 0 and o * q % 1 == 0 for o, q in zip(orders, q_values))


# census-agreeing degenerate forms on Z/27 + Z/3 that are not isomorphic:
# each pair differs in b(g_0, g_1) alone, and the search runs to exhaustion
DEGENERATE_27_3 = [
    (fqf_from_generators([27, 3], [q, 0], [[q % 1, 0], [0, 0]]),
     fqf_from_generators([27, 3], [q, 0], [[q % 1, Fraction(1, 3)], [Fraction(1, 3), 0]]))
    for q in (Fraction(10, 9), Fraction(2, 9))
]


def _hand_built_pairs():
    """Pairs of random diagonal presentations with hand-built denominators.

    Those with denominators 7, 11, 4 d or 3 d are refused unless they are
    well defined; values c / d with d c even are always well defined, and
    their denominators may be proper divisors of d.
    """
    rng = random.Random(9)
    pairs = []
    for _ in range(40):
        d = rng.choice((2, 3, 4, 5, 9))
        k = 1 if d > 3 else rng.randint(1, 3)
        den = rng.choice((7, 11, 4 * d, 3 * d))
        qs = [Fraction(rng.randrange(1, 2 * den), den) for _ in range(k)]
        built = []
        for values in (qs, [q * rng.choice((1, 4, 9)) for q in qs]):
            if _is_well_defined([d] * k, values):
                built.append(fqf_from_diagonal([(d, q) for q in values]))
            else:
                with pytest.raises(ValueError, match="is not well defined"):
                    fqf_from_diagonal([(d, q) for q in values])
        if len(built) == 2:
            pairs.append(tuple(built))
        d = rng.choice((2, 3, 4, 5, 9, 27))
        k = 1 if d > 3 else rng.randint(1, 3)
        qs = [Fraction(c, d) for c in rng.choices(range(0, 2 * d, 1 + d % 2), k=k)]
        assert _is_well_defined([d] * k, qs)
        f = fqf_from_diagonal([(d, q) for q in qs])
        g = fqf_from_diagonal([(d, q * rng.choice((1, 4, 9))) for q in qs])
        pairs.append((f, g))
    return pairs


def test_fqf_isomorphic_matches_reference_on_hand_built_denominators(monkeypatch):
    # q and b must be well defined on the group: on Z/3, 3^2 q is not even for
    # q = 4/7, 1/7 and 1/3 (although 3 b = 1 for the last), and 3 b is not an
    # integer for q = 2/9 and 8/9 (although 3^2 q is even)
    for q, value in ((Fraction(4, 7), "q"), (Fraction(1, 7), "q"), (Fraction(1, 3), "q"),
                     (Fraction(2, 9), "b"), (Fraction(8, 9), "b")):
        with pytest.raises(ValueError, match=f"^{value} is not well defined: generator 0 "):
            fqf_from_diagonal([(3, q)])
    with pytest.raises(ValueError, match="^q is not well defined: generator 1 "):
        fqf_from_diagonal([(3, 0), (3, Fraction(1, 7))])
    with pytest.raises(ValueError, match="^b is not well defined: generator 0 "):
        fqf_from_generators([3, 3], [0, 0], [[0, Fraction(1, 9)], [Fraction(1, 9), 0]])
    # q = 4/3 on Z/3 is the well-defined lift of b = 1/3
    four_thirds = fqf_from_diagonal([(3, Fraction(4, 3))])
    assert fqf_isomorphic(four_thirds, four_thirds)
    assert not fqf_isomorphic(four_thirds, fqf_from_diagonal([(3, Fraction(2, 3))]))
    degenerate = DEGENERATE_27_3 + [(g, f) for f, g in DEGENERATE_27_3]
    assert _census_and_search_agree(degenerate, monkeypatch) == (0, len(degenerate))
    assert not any(fqf_isomorphic(f, g) for f, g in degenerate)
    pairs = _hand_built_pairs()
    _, searched = _census_and_search_agree(pairs, monkeypatch)
    assert searched > 0
    assert any(fqf_isomorphic(f, g) for f, g in pairs)
    assert any(not fqf_isomorphic(f, g) for f, g in pairs)


def _every_form(orders):
    """Every symmetric b on the odd group of ``orders``, each with the q that descends.

    In product order: the first forms have all but their last b values
    zero, so they are degenerate.
    """
    k = len(orders)
    cells = [(i, j) for i in range(k) for j in range(i, k)]
    for values in product(*(range(gcd(orders[i], orders[j])) for i, j in cells)):
        b = [[Fraction(0)] * k for _ in range(k)]
        for (i, j), v in zip(cells, values):
            b[i][j] = b[j][i] = Fraction(v, gcd(orders[i], orders[j]))
        # q_i is b_ii or b_ii + 1, whichever makes o_i^2 q_i even
        q = [b[i][i] + (o * o * b[i][i]).numerator % 2 for i, o in enumerate(orders)]
        yield fqf_from_generators(orders, q, b)


SMALL_ORDERS = [(3, 3, 3), (9, 3), (25, 5), (7, 7)]


def _small_forms(orders):
    """The first forms of ``_every_form`` (degenerate) and a seeded sample of the rest."""
    every = list(_every_form(orders))
    return every[:8] + random.Random(len(every)).sample(every[8:], 16)


@pytest.mark.parametrize("orders", SMALL_ORDERS)
def test_fqf_isomorphic_matches_reference_on_every_small_form(orders):
    # on the whole enumeration the verdicts agree with the search as well,
    # but checking that takes seconds per group
    forms = _small_forms(orders)
    reps, classes = [], []
    for f in forms:
        c = next((c for c, r in enumerate(reps) if _reference_isomorphic(f, r)), len(reps))
        if c == len(reps):
            reps.append(f)
        classes.append(c)
    assert len(reps) > 2
    for f, c in zip(forms, classes):
        for g, d in zip(forms, classes):
            assert fqf_isomorphic(f, g) == (c == d), (f, g)
    # the other lift of b_00 to q_0 does not descend, so it is refused
    for f in forms[::8]:
        with pytest.raises(ValueError, match="^q is not well defined: generator 0 "):
            fqf_from_generators(orders, (f.q_values[0] + 1,) + f.q_values[1:], f.b_matrix)


def test_fqf_isomorphic_is_symmetric():
    # every pair of forms within each pool above, in both orders
    pools = [_discriminant_pool(), *map(_small_forms, SMALL_ORDERS)]
    pools += [[f for pair in pairs for f in pair] for pairs in (_rebased_pool(), _twisted_pool())]
    checked = 0
    for forms in pools:
        for i, f in enumerate(forms):
            for g in forms[:i]:
                assert fqf_isomorphic(f, g) == fqf_isomorphic(g, f), (f, g)
                checked += 1
    assert checked > 6000


def test_fqf_isomorphic_searches_only_two_parts_and_degenerate_parts(monkeypatch):
    five = fqf_from_diagonal([(5, Fraction(2, 5)), (5, Fraction(4, 5))])
    twisted = fqf_from_diagonal([(5, Fraction(2, 5)), (5, Fraction(2, 5))])
    # the hyperbolic plane on (Z/3)^2 has a zero diagonal, so its Jordan split
    # starts off the diagonal; it is <1/3, 2/3>, not <1/3, 1/3>
    plane = fqf_from_generators([3, 3], [0, 0], [[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
    # Z/9 + Z/3 on the generators g_0 + g_1 and g_1
    mixed = fqf_from_diagonal([(9, Fraction(10, 9)), (3, Fraction(4, 3))])
    rebased = fqf_from_generators([9, 3], [Fraction(4, 9), Fraction(4, 3)],
                                  [[Fraction(4, 9), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 3)]])
    odd = [(five, _rebased(five, [[2, 1], [1, 1]])), (five, twisted),
           (plane, fqf_from_diagonal([(3, Fraction(4, 3)), (3, Fraction(2, 3))])),
           (plane, fqf_from_diagonal([(3, Fraction(4, 3)), (3, Fraction(4, 3))])),
           (mixed, rebased), (fqf_from_diagonal([(9, Fraction(10, 9)), (3, Fraction(2, 3))]), rebased)]
    assert _census_and_search_agree(odd, monkeypatch) == (3, 0)
    assert [fqf_isomorphic(f1, f2) for f1, f2 in odd] == [True, False] * 3
    # 2-parts and degenerate b still reach the search
    two = fqf_from_diagonal([(2, Fraction(1, 2)), (4, Fraction(1, 4))])
    zero = fqf_from_diagonal([(3, 0), (3, 0)])
    searched = [(two, two), (zero, zero), DEGENERATE_27_3[0]]
    assert _census_and_search_agree(searched, monkeypatch) == (0, 3)
    assert [fqf_isomorphic(f1, f2) for f1, f2 in searched] == [True, True, False]
    # q that does not descend is refused before any search
    for q in (Fraction(4, 7), Fraction(1, 7)):
        with pytest.raises(ValueError, match="^q is not well defined"):
            fqf_from_diagonal([(3, q)])


@pytest.mark.parametrize("p, k", [(5, 4), (3, 6)])
def test_fqf_isomorphic_cost_cliff(p, k):
    # without the census each twisted pair is searched exhaustively: the
    # Fraction search took 45 s on (Z/5)^4 and did not finish (Z/3)^6 in 350 s
    rng = random.Random(p * 100 + k)
    nu = _nonsquare(p)
    plain = fqf_from_diagonal([(p, Fraction(2, p))] * k)
    twisted = fqf_from_diagonal([(p, Fraction(2 * nu, p))] + [(p, Fraction(2, p))] * (k - 1))
    start = time.perf_counter()
    assert not fqf_isomorphic(plain, twisted)
    assert not fqf_isomorphic(twisted, plain)
    for form in (plain, twisted):
        u = [list(r) for r in random_unimodular(rng, k).data]
        assert fqf_isomorphic(form, _rebased(form, u))
        assert fqf_isomorphic(_rebased(form, u), form)
    assert time.perf_counter() - start < 5.0


def _limit_pairs():
    """Pairs near FQF_ORDER_CAP or with a large scale m, as (f1, f2, known answer or None).

    The Fraction reference takes over half a second per pair on (Z/3)^8
    and (Z/2)^13 and cannot finish a twisted pair there, and searches a
    twisted (Z/97)^2 pair exhaustively, so those pairs carry their answer
    by construction: a base change is an isomorphism, and a nonsquare twist
    of one diagonal value changes the Gauss sum.
    """
    rng = random.Random(14)
    pairs = []
    for p, k, q, twist in ((3, 8, Fraction(2, 3), Fraction(4, 3)),
                           (2, 13, Fraction(1, 2), Fraction(3, 2))):
        plain = fqf_from_diagonal([(p, q)] * k)
        twisted = fqf_from_diagonal([(p, twist)] + [(p, q)] * (k - 1))
        u = [list(r) for r in random_unimodular(rng, k).data]
        rebased = _rebased(plain, u)
        pairs += [(plain, rebased, True), (twisted, rebased, False)]
        # every off-diagonal pairing (p - 1)/p, so the slots of e^T B fill up
        # before they are read
        dense = fqf_from_generators(
            [p] * k, [0] * k, [[Fraction(p - 1, p) * (i != j) for j in range(k)] for i in range(k)]
        )
        pairs.append((dense, _rebased(dense, u), True))
    # m = 9973 on Z/9973, and m = 2 * 619 on the 2-part of (Z/2)^4 + Z/619
    big = 9973
    plain = fqf_from_diagonal([(big, Fraction(2, big))])
    pairs += [(plain, fqf_from_diagonal([(big, Fraction(2 * 1234 ** 2, big))]), None),
              (plain, fqf_from_diagonal([(big, Fraction(2 * _nonsquare(big), big))]), None)]
    two = fqf_from_diagonal([(2, Fraction(1, 2))] * 4)
    two_twisted = fqf_from_diagonal([(2, Fraction(3, 2))] + [(2, Fraction(1, 2))] * 3)
    odd = fqf_from_diagonal([(619, Fraction(2 * 5, 619))])
    u = [list(r) for r in random_unimodular(rng, 4).data]
    rebased = fqf_direct_sum(_rebased(two, u), odd)
    pairs += [(fqf_direct_sum(two, odd), rebased, None),
              (fqf_direct_sum(two_twisted, odd), rebased, None)]
    # (Z/97)^2 with m = 97, rebased and twisted
    squares = [rng.randrange(1, 97) ** 2 % 97 for _ in range(2)]
    plain = fqf_from_diagonal([(97, Fraction(2 * a, 97)) for a in squares])
    twisted = fqf_from_diagonal([(97, Fraction(2 * squares[0] * _nonsquare(97), 97)),
                                 (97, Fraction(2 * squares[1], 97))])
    u = [list(r) for r in random_unimodular(rng, 2).data]
    rebased = _rebased(plain, u)
    pairs += [(plain, rebased, None), (twisted, rebased, False)]
    return pairs


# _extend calls per pair of _limit_pairs: odd p-parts whose b is
# nondegenerate are decided by their Jordan invariants (0 calls), the
# census rejects the twisted 2-parts (0 calls), and the search order fixes
# the number of nodes of every other search
LIMIT_EXTEND_CALLS = [0, 0, 0, 14, 0, 15, 0, 0, 5, 0, 0, 0]


def test_fqf_isomorphic_at_the_limits(monkeypatch):
    calls = []
    search = lattices._extend

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(lattices, "_extend", counted)
    pairs = _limit_pairs()
    counts, answers, seconds = [], [], 0.0
    for f1, f2, known in pairs:
        before = len(calls)
        start = time.perf_counter()
        answers.append(fqf_isomorphic(f1, f2))
        seconds += time.perf_counter() - start
        counts.append(len(calls) - before)
        assert answers[-1] == (_reference_isomorphic(f1, f2) if known is None else known)
    assert counts == LIMIT_EXTEND_CALLS
    assert {a for a, (_, _, known) in zip(answers, pairs) if known is None} == {True, False}
    assert seconds < 2.0


def test_fqf_direct_sum_and_primary_parts():
    f = fqf_direct_sum(
        fqf_from_diagonal([(2, Fraction(-1, 2))]), fqf_from_diagonal([(5, Fraction(2, 5))])
    )
    assert f.group_order == 10
    five = p_primary_part(f, 5)
    assert five.orders == (5,) and five.q_values == (Fraction(2, 5),)
    # the 5-part of Z/10(-1/10) is generated by twice the generator
    z10 = fqf_from_diagonal([(10, Fraction(-1, 10))])
    five2 = p_primary_part(z10, 5)
    assert five2.orders == (5,) and five2.q_values == (Fraction(-2, 5) % 2,)
    two2 = p_primary_part(z10, 2)
    assert two2.orders == (2,) and two2.q_values == (Fraction(-5, 2) % 2,)
    # a prime that does not divide the group order gives the trivial form
    assert p_primary_part(f, 3).is_trivial and p_primary_part(f, 3) == reference_p_primary_part(f, 3)



def test_p_primary_part_matches_fraction_reference():
    rng = random.Random(20260808)
    forms = [
        discriminant_form(_random_even_lattice(rng, rng.randint(1, 3), max_det=200))
        for _ in range(60)
    ]
    # hand-built presentations on mixed orders, whose p-parts are generated
    # by cofactor multiples: q_i = c / o_i with o_i c even, b_ij = v / gcd(o_i, o_j)
    for _ in range(40):
        orders = [rng.choice((2, 3, 4, 5, 6, 9, 10, 12, 36)) for _ in range(rng.randint(1, 3))]
        qs = [Fraction(rng.randrange(0, 2 * o, 1 + o % 2), o) for o in orders]
        b = [[qs[i] % 1 if i == j else Fraction(0) for j in range(len(orders))]
             for i in range(len(orders))]
        for i in range(len(orders)):
            for j in range(i):
                g = gcd(orders[i], orders[j])
                b[i][j] = b[j][i] = Fraction(rng.randrange(g), g)
        forms.append(fqf_from_generators(orders, qs, b))
    forms.append(fqf_from_diagonal([(3, Fraction(4, 3)), (3, 0), (9, Fraction(2, 9))]))
    parts = 0
    for f in forms:
        for p in group_signature(f.orders):
            assert p_primary_part(f, p) == reference_p_primary_part(f, p), (f, p)
            parts += 1
    assert parts > 150


def _pool_forms():
    """Every form of the discriminant, rebased, twisted and hand-built pools."""
    pairs = _rebased_pool() + _twisted_pool() + _hand_built_pairs() + DEGENERATE_27_3
    return _discriminant_pool() + [f for pair in pairs for f in pair]


def test_p_parts_are_integral_on_the_scale_of_each_part():
    # a value n/d of a generator of order o has d | o, so each p-part scaled
    # by its own largest order p^K is integral
    mixed = 0
    for f in _pool_forms():
        parts = lattices._p_parts(f)
        assert list(parts) == list(group_signature(f.orders)), f
        mixed += any(len(factorize(o)) > 1 for o in f.orders)
        for p, (orders, qs, bm) in parts.items():
            top = orders[-1]
            assert orders == sorted(orders) and set(factorize(top)) == {p}
            assert all(top % o == 0 for o in orders)
            for i, row in enumerate(bm):
                assert type(qs[i]) is int and 0 <= qs[i] < 2 * top, (f, p)
                assert all(type(x) is int and 0 <= x < top for x in row), (f, p)
                assert [r[i] for r in bm] == row and qs[i] % top == row[i], (f, p)
    assert mixed > 0


def test_fqf_isomorphic_cancels_a_summand_of_coprime_order():
    # Z/9973 alone fills FQF_ORDER_CAP, so it is added to the trivial form only
    trivial = fqf_from_diagonal([])
    big = fqf_from_diagonal([(9973, Fraction(2 * 1234, 9973))])
    sevens = fqf_from_diagonal([(7, Fraction(2, 7)), (7, Fraction(6, 7))])
    forms = _discriminant_pool()
    pairs = [(f, g) for f in forms for g in forms if f.group_order == g.group_order]
    pairs += _rebased_pool() + _twisted_pool() + _hand_built_pairs()
    pairs = [(f, g) for f, g in pairs if all(x.group_order <= 204 and x.group_order % 7 for x in (f, g))]
    assert len(pairs) > 500
    answers = set()
    for h, cases in ((big, [(trivial, trivial)]), (sevens, pairs)):
        for f, g in cases:
            got = fqf_isomorphic(f, g)
            assert fqf_isomorphic(fqf_direct_sum(f, h), fqf_direct_sum(g, h)) == got, (f, g, h)
            answers.add(got)
    assert answers == {True, False}


def test_fqf_isomorphic_factorizes_each_order_once(monkeypatch):
    calls = []
    real = lattices.factorize

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(lattices, "factorize", counted)
    forms = _discriminant_pool()[:40]
    pairs = [(f, g) for f in forms for g in forms]
    pairs += _rebased_pool() + _twisted_pool() + _hand_built_pairs()
    for f1, f2 in pairs:
        calls.clear()
        fqf_isomorphic(f1, f2)
        assert sorted(calls) == sorted(f1.orders + f2.orders), (f1, f2)


def test_serialization_roundtrip():
    for lat in (H5, make_standard("A4*(-5)"), direct_sum(U, H5)):
        again = lattice_from_dict({"gram": lat.gram.to_lists(), "name": lat.name})
        assert again.gram == lat.gram
        assert again.name == lat.name
    with pytest.raises(ValueError):
        lattice_from_dict({"name": "broken"})
    with pytest.raises(ValueError):
        lattice_from_dict({"gram": [[0, 1], [2, 0]]})
    assert lattice_from_dict({"gram": [[2, 1], [1, 2]], "name": None}).name is None
    for name in ([1], {"a": 1}, 7, True):
        with pytest.raises(ValueError, match="^lattice 'name' must be a string or null"):
            lattice_from_dict({"gram": [[2, 1], [1, 2]], "name": name})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["U", "H5", "A4(-1)", "<-2>", "U(5)"]), st.sampled_from(["U", "H5", "<-4>"]))
def test_signature_and_det_additivity(n1, n2):
    a, b = make_standard(n1), make_standard(n2)
    s = direct_sum(a, b)
    pa, ma = signature(a)
    pb, mb = signature(b)
    assert signature(s) == (pa + pb, ma + mb)
    assert s.det == a.det * b.det
