"""The order five classification table on the rank 23 lattice.

The ambient lattice is U^3 + E8(-1)^2 + <-2>, the second integral cohomology
of a hyper-Kaehler fourfold of K3-Hilbert-square deformation type with the
Beauville-Bogomolov-Fujiki form.  Each table row pairs the coinvariant
lattice S and the invariant lattice T of an order five nonsymplectic
isometry; verify_row machine-checks every numeric condition that pins the
row down (ranks, signatures, discriminant groups and parities, bounds).

The existence direction (genus theory and primitive embedding criteria) is
not re-proved here: the checks are the necessary conditions only, and the
report says so via the ``necessary_conditions_only`` flag.
"""

from __future__ import annotations

from fractions import Fraction

# The private split readers let verify_row and verify_53_complement split each
# Gram matrix into blocks once and read signature, discriminant group and
# discriminant form from that one split.
from .lattices import (
    FiniteQuadraticForm,
    Lattice,
    _blocks,
    _discriminant_group,
    _orthogonal_form,
    _signature,
    direct_sum,
    fqf_from_diagonal,
    fqf_isomorphic,
    group_signature,
    is_p_elementary,
    make_standard,
    p_primary_part,
)
from .matrix import _Frozen

AMBIENT_RANK = 23
ORDER = 5


def _build(*names: str) -> Lattice:
    return direct_sum(*(make_standard(n) for n in names))


class ClassificationRow(_Frozen):
    __slots__ = ("m", "a", "s", "t")


def table_rows() -> list[ClassificationRow]:
    """The eight rows (m, a, S, T) of the order five classification."""
    rows = [
        (1, 1, ("U", "H5"), ("E8(-1)", "E8(-1)", "H5", "<-2>")),
        (2, 2, ("U", "H5", "A4(-1)"), ("E8(-1)", "H5", "A4(-1)", "<-2>")),
        (3, 1, ("U", "E8(-1)", "H5"), ("E8(-1)", "H5", "<-2>")),
        (3, 3, ("U", "H5", "A4(-1)", "A4(-1)"), ("H5", "A4(-1)", "A4(-1)", "<-2>")),
        (4, 2, ("U", "E8(-1)", "H5", "A4(-1)"), ("H5", "A4(-1)", "<-2>")),
        (4, 4, ("U(5)", "E8(-1)", "H5", "A4(-1)"), ("H5", "A4*(-5)", "<-2>")),
        (5, 1, ("U", "E8(-1)", "E8(-1)", "H5"), ("H5", "<-2>")),
        (5, 3, ("U", "E8(-1)", "H5", "A4(-1)", "A4(-1)"), ("U(5)", "<-10>")),
    ]
    return [ClassificationRow(m, a, _build(*s), _build(*t)) for m, a, s, t in rows]


class RowReport(_Frozen):
    __slots__ = ("row", "checks", "values", "necessary_conditions_only")
    _defaults = {"necessary_conditions_only": True}

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


_TWO_PART_TARGET = fqf_from_diagonal([(2, Fraction(-1, 2))])


def verify_row(row: ClassificationRow) -> RowReport:
    """Exact checks of every numeric condition asserted for a table row.

    Takes no whole-Gram Smith form.  The Gram matrices of S and T are
    split into their orthogonal blocks once each, and the signatures, the
    discriminant groups of S and T and the discriminant form of T, whose
    2-part is checked, are read per distinct block from that split, so
    blocks met in an earlier row cost no elimination and no Smith form.
    """
    m, a, s, t = row.m, row.a, row.s, row.t
    checks: dict[str, bool] = {}
    values: dict[str, object] = {}

    values["rank_s"] = s.rank
    values["rank_t"] = t.rank
    checks["rank_s"] = s.rank == 4 * m
    checks["rank_t"] = t.rank == AMBIENT_RANK - 4 * m

    s_blocks, t_blocks = _blocks(s.gram), _blocks(t.gram)
    sig_s, sig_t = _signature(s_blocks), _signature(t_blocks)
    values["sig_s"] = sig_s
    values["sig_t"] = sig_t
    checks["sig_s"] = sig_s == (2, 4 * m - 2)
    checks["sig_t_hyperbolic"] = sig_t == (1, 22 - 4 * m)

    ds_orders = _discriminant_group(s_blocks)
    elem, count = is_p_elementary(ds_orders, ORDER)
    values["ds_orders"] = ds_orders
    checks["ds_is_5_elementary_rank_a"] = elem and count == a

    dt, dt_orders = _orthogonal_form(t_blocks), _discriminant_group(t_blocks)
    values["dt_orders"] = dt_orders
    checks["dt_order"] = dt.group_order == 2 * ORDER**a
    checks["dt_group_is_z2_plus_ds"] = group_signature(dt_orders) == group_signature(
        (2,) + ds_orders
    )
    checks["dt_two_part"] = fqf_isomorphic(p_primary_part(dt, 2), _TWO_PART_TARGET)

    checks["parity"] = (a - m) % 2 == 0
    checks["a_le_m"] = a <= m
    checks["a_le_23_minus_4m"] = a <= AMBIENT_RANK - 4 * m
    return RowReport(row, checks, values)


def candidate_pairs() -> list[tuple[int, int]]:
    """All (m, a) allowed by the numeric constraints.

    4m <= 23 bounds m, a <= min(m, 23 - 4m) bounds a, and a = m mod 2.
    """
    pairs = []
    for m in range(1, AMBIENT_RANK // 4 + 1):
        for a in range(0, min(m, AMBIENT_RANK - 4 * m) + 1):
            if (a - m) % 2 == 0:
                pairs.append((m, a))
    return pairs


def complement_form_target() -> FiniteQuadraticForm:
    """Discriminant form required of the rank 3 complement in the (5, 3) case."""
    return fqf_from_diagonal(
        [
            (5, Fraction(-2, 5)),
            (5, Fraction(4, 5)),
            (5, Fraction(4, 5)),
            (2, Fraction(-1, 2)),
        ]
    )


def verify_53_complement() -> bool:
    """U(5) + <-10> has signature (1, 2) and the required discriminant form."""
    t = direct_sum(make_standard("U(5)"), make_standard("<-10>"))
    blocks = _blocks(t.gram)
    if _signature(blocks) != (1, 2):
        return False
    return fqf_isomorphic(_orthogonal_form(blocks), complement_form_target())


class ClassificationReport(_Frozen):
    __slots__ = ("row_reports", "pairs", "pairs_ok", "table_pairs_ok", "complement_ok")

    @property
    def passed(self) -> bool:
        return (
            all(r.passed for r in self.row_reports)
            and self.pairs_ok
            and self.table_pairs_ok
            and self.complement_ok
        )


EXPECTED_PAIRS = (
    (1, 1),
    (2, 0),
    (2, 2),
    (3, 1),
    (3, 3),
    (4, 0),
    (4, 2),
    (4, 4),
    (5, 1),
    (5, 3),
)

# the pairs ruled out by the rank/genus existence argument
EXCLUDED_PAIRS = ((2, 0), (4, 0))


def verify_all() -> ClassificationReport:
    """Run every check: row conditions, candidate pair list, complement form."""
    rows = table_rows()
    reports = tuple(verify_row(r) for r in rows)
    pairs = tuple(candidate_pairs())
    pairs_ok = pairs == EXPECTED_PAIRS
    shipped = tuple(sorted((r.m, r.a) for r in rows))
    expected_shipped = tuple(sorted(set(EXPECTED_PAIRS) - set(EXCLUDED_PAIRS)))
    table_pairs_ok = shipped == expected_shipped
    return ClassificationReport(reports, pairs, pairs_ok, table_pairs_ok, verify_53_complement())
