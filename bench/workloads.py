"""The four benchmark workloads: inputs, the calls into kummerlat, and oracles.

Each workload is a ``Workload`` of three functions:

* ``build(seed, tiny, top_n)`` generates the inputs from the seed and returns
  a list of ``Item``; it runs inside the timed set-up;
* ``run(item)`` makes the package calls of one item and returns their raw
  output; each call is timed;
* ``check(items, outputs)`` compares every output with its oracle and returns
  one boolean per item; it runs after the timed loop.

``canon`` turns an output into plain data, so that two runs can be compared.
kummerlat is imported inside the functions, never at module import, so that
the child interpreter can time the import and the tracer can wrap the
package before any of its functions is looked up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from oracles import CANDIDATE_PAIRS, CATALOG_GOLDEN, identity_polynomial, identity_value

DEFAULT_SEED = 20260808  # the default seed of kummerlat.pool.extended_pool


@dataclass(frozen=True)
class Item:
    label: str
    inputs: Any
    expected: Any = None


@dataclass(frozen=True)
class Workload:
    build: Callable
    run: Callable
    check: Callable
    canon: Callable


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of repetition ``rep``; repetition 0 uses the run's seed itself.

    Later repetitions draw fresh inputs, so a run's medians average over
    several seeded inputs instead of resting on one draw.
    """
    return seed if rep == 0 else random.Random(f"{seed}/{rep}").randrange(2**31)


# ---------------------------------------------------------------------------
# catalog_table: the paper's 39-entry table on the Kummer fourfold


def _lefschetz_item(aut):
    from kummerlat import lefschetz as lef

    result = lef.lefschetz_q(aut)
    l_one = lef.lefschetz_poly_surface(aut.matrix).evaluate_one()
    return result, l_one, lef.corollary_value(aut)


def _lefschetz_canon(output):
    result, l_one, corollary = output
    coeffs = tuple((e, str(c)) for e, c in sorted(result.polynomial.coeffs.items()))
    return (result.value, coeffs, str(l_one), str(corollary))


def _corollary_holds(output) -> bool:
    result, l_one, corollary = output
    return corollary == Fraction(l_one) * result.value


def build_catalog(seed: int, tiny: bool, top_n: int) -> list[Item]:
    rows = CATALOG_GOLDEN[::8] if tiny else CATALOG_GOLDEN
    return [Item(f"type {k} {v}", (k, v), value) for k, v, value in rows]


def run_catalog(item: Item):
    from kummerlat import lefschetz as lef

    return _lefschetz_item(lef.catalog(*item.inputs))


def check_catalog(items, outputs) -> list[bool]:
    return [out[0].value == item.expected and _corollary_holds(out)
            for item, out in zip(items, outputs)]


# ---------------------------------------------------------------------------
# kummer_sweep: catalog matrices +-h on K_{n-1}(A) for n = 2..top_n

# Seconds of item time one repetition takes up to each top n, at the
# reference speed (see child.py); run.py picks the largest top n whose
# sweep fits MIN_REPS times into a run.
SWEEP_SECONDS = {2: 0.23, 3: 0.52, 4: 1.10, 5: 2.09, 6: 3.77, 7: 6.65}


def build_sweep(seed: int, tiny: bool, top_n: int) -> list[Item]:
    from kummerlat import lefschetz as lef

    matrices = []
    for kind in range(9):
        h = lef.catalog(kind, lef.catalog_variants(kind)[0]).matrix
        matrices += [(f"type {kind} h", h, kind == 0), (f"type {kind} -h", -h, False)]
    rng = random.Random(seed)
    items = []
    for n in range(2, 3 if tiny else top_n + 1):
        for label, h, is_identity in matrices:
            for b in ((0, 0, 0, 0), tuple(rng.randrange(n) for _ in range(4))):
                oracle_case = is_identity and not any(b)
                items.append(Item(f"n={n} {label} b={b}", (h, b, n), oracle_case))
    return items


def run_sweep(item: Item):
    from kummerlat import lefschetz as lef

    h, b, n = item.inputs
    return _lefschetz_item(lef.torus_automorphism(h, b, n))


def check_sweep(items, outputs) -> list[bool]:
    """Corollary identity everywhere; n^3 sigma(n) and Goettsche-Soergel at id, b = 0."""
    oks = []
    for item, out in zip(items, outputs):
        ok = _corollary_holds(out)
        if item.expected:
            n = item.inputs[2]
            coeffs = out[0].polynomial.coeffs
            dense = [coeffs.get(e, 0) for e in range(4 * n - 3)]
            ok = ok and out[0].value == identity_value(n)
            ok = ok and set(coeffs) <= set(range(4 * n - 3)) and dense == identity_polynomial(n)
        oks.append(ok)
    return oks


# ---------------------------------------------------------------------------
# isometry_pool: the seeded 220-entry property pool


def build_pool(seed: int, tiny: bool, top_n: int) -> list[Item]:
    from kummerlat import pool

    entries = pool.extended_pool(seed=seed, count=40 if tiny else 220)
    return [Item(e.name, e.isometry) for e in entries]


def run_pool(item: Item):
    from kummerlat import isometries as iso_mod

    iso = item.inputs
    inv = iso_mod.compute_invariants(iso)
    p = iso.order
    square = corollary = None
    if p != 2:
        square = iso_mod.check_square_theorem(inv, p)
        if iso.lattice.is_unimodular:
            corollary = iso_mod.check_unimodular_corollary(inv, p, iso.lattice)
    return inv.m, inv.a, inv.disc_s, inv.index, square, corollary


def check_pool(items, outputs) -> list[bool]:
    """a <= m, both theorems, and each conjugate keeps its source's (m, a, disc S)."""
    by_name = {item.label: out for item, out in zip(items, outputs)}
    oks = []
    for item, out in zip(items, outputs):
        m, a, disc_s, _, square, corollary = out
        ok = a <= m and square is not False and corollary is not False
        source, sep, _ = item.label.rpartition(" (conjugate ")
        if sep:
            ok = ok and source in by_name and by_name[source][:3] == (m, a, disc_s)
        oks.append(ok)
    return oks


# ---------------------------------------------------------------------------
# classify_forms: verify_all plus finite quadratic form isomorphism queries

# Isomorphic queries: orthogonal sums of cyclic pieces, blocks of (p, rank).
# The search exits at the first isometry it finds, but a bad draw can search
# almost exhaustively, so only shapes whose exhaustive search takes about a
# second or less are drawn: (Z/5)^4 or (Z/7)^4 could take minutes.
# The eight (Z/5)^3 draws, whose search time varies least, hold the median
# item of a repetition.
ISO_SHAPES = (
    5 * (((2, 4),), ((2, 3), (5, 2)), ((3, 2), (5, 2), (7, 1)), ((5, 2), (7, 2)))
    + 8 * (((5, 3),),)
    + 5 * (((3, 4),), ((7, 3),))
)
# Non-isomorphic queries, (p, rank), searched exhaustively.  (7, 3) and
# (3, 4) are the steepest sizes that fit a run (see NOTES.md for the cost
# cliff beyond them); with nine (5, 3) queries the exhaustive searches are
# the slowest eleven items of a repetition, so item_ms.tail measures them.
NON_ISO_SHAPES = ((3, 3),) + 9 * ((5, 3),) + ((7, 3), (3, 4))


def _nonsquare(p: int) -> int:
    return next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)


def _unimodular(rng: random.Random, k: int, steps: int = 12) -> list[list[int]]:
    # like kummerlat.pool.random_unimodular, but kept here so that a change
    # to the package cannot change the benchmark's inputs
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return rows


def _form(blocks, rng: random.Random | None):
    """The orthogonal sum of cyclic forms Z/p(q), blocks of (p, [q...]).

    With ``rng`` each block is presented in a random basis: generator j of
    the block becomes sum_i U_ij g_i for a random unimodular U.
    """
    from kummerlat import lattices

    orders, qs, bs = [], [], []
    for p, block_q in blocks:
        k = len(block_q)
        u = _unimodular(rng, k) if rng else [[int(i == j) for j in range(k)] for i in range(k)]
        orders += [p] * k
        qs += [sum(u[i][j] ** 2 * block_q[i] for i in range(k)) for j in range(k)]
        bs.append([[sum(u[i][j] * u[i][l] * (block_q[i] % 1) for i in range(k)) for l in range(k)]
                   for j in range(k)])
    size = len(orders)
    b = [[Fraction(0)] * size for _ in range(size)]
    start = 0
    for block in bs:
        for j, row in enumerate(block):
            b[start + j][start:start + len(row)] = row
        start += len(block)
    return lattices.fqf_from_generators(orders, qs, b)


def _cyclic_q(rng: random.Random, p: int, unit: int) -> Fraction:
    """q = 2 a / p with a = unit * s^2 for a random s; q = +-1/2 for p = 2."""
    if p == 2:
        return Fraction(rng.choice((1, 3)), 2)
    s = rng.randrange(1, p)
    return Fraction(2 * (unit * s * s % p), p)


def build_classify(seed: int, tiny: bool, top_n: int) -> list[Item]:
    rng = random.Random(seed)
    items = [Item("verify_all", None, True)]
    iso_shapes = ISO_SHAPES[:2] if tiny else ISO_SHAPES
    non_iso_shapes = NON_ISO_SHAPES[:1] if tiny else NON_ISO_SHAPES
    for shape in iso_shapes:
        blocks = [(p, [_cyclic_q(rng, p, rng.randrange(1, max(p, 2))) for _ in range(k)])
                  for p, k in shape]
        label = " + ".join(f"(Z/{p})^{k}" for p, k in shape)
        items.append(Item(f"iso {label}", (_form(blocks, rng), _form(blocks, rng)), True))
    for p, k in non_iso_shapes:
        nu = _nonsquare(p)
        first = [_cyclic_q(rng, p, 1) for _ in range(k)]
        twisted = [_cyclic_q(rng, p, nu)] + [_cyclic_q(rng, p, 1) for _ in range(k - 1)]
        rng.shuffle(twisted)
        pair = (_form([(p, first)], None), _form([(p, twisted)], None))
        items.append(Item(f"non-iso (Z/{p})^{k}", pair, False))
    return items


def run_classify(item: Item):
    from kummerlat import classification, lattices

    if item.inputs is None:
        return classification.verify_all()
    return lattices.fqf_isomorphic(*item.inputs)


def _classify_canon(output):
    if isinstance(output, bool):
        return output
    return (output.passed, output.pairs, tuple(r.passed for r in output.row_reports),
            output.pairs_ok, output.table_pairs_ok, output.complement_ok)


def check_classify(items, outputs) -> list[bool]:
    oks = []
    for item, out in zip(items, outputs):
        if item.inputs is None:
            oks.append(out.passed is True and tuple(out.pairs) == CANDIDATE_PAIRS
                       and len(out.row_reports) == 8)
        else:
            oks.append(out is item.expected)
    return oks


WORKLOADS: dict[str, Workload] = {
    "catalog_table": Workload(build_catalog, run_catalog, check_catalog, _lefschetz_canon),
    "kummer_sweep": Workload(build_sweep, run_sweep, check_sweep, _lefschetz_canon),
    "isometry_pool": Workload(build_pool, run_pool, check_pool, lambda out: out),
    "classify_forms": Workload(build_classify, run_classify, check_classify, _classify_canon),
}
