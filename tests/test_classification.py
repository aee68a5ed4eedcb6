from math import prod

from kummerlat.classification import (
    AMBIENT_RANK,
    EXCLUDED_PAIRS,
    EXPECTED_PAIRS,
    ORDER,
    ClassificationRow,
    candidate_pairs,
    complement_form_target,
    table_rows,
    verify_53_complement,
    verify_all,
    verify_row,
)
from kummerlat.lattices import (
    direct_sum,
    discriminant_form,
    discriminant_group,
    fqf_isomorphic,
    make_standard,
    signature,
)
from lattice_reference import ambient_lattice


def test_ambient_lattice_shape():
    amb = ambient_lattice()
    assert amb.rank == AMBIENT_RANK == 23
    assert signature(amb) == (3, 20)
    assert amb.disc == 2


def test_table_has_eight_rows_with_expected_pairs():
    rows = table_rows()
    assert len(rows) == 8
    pairs = sorted((r.m, r.a) for r in rows)
    assert pairs == sorted(set(EXPECTED_PAIRS) - set(EXCLUDED_PAIRS))


def test_row_1_1_and_5_3_entries():
    rows = {(r.m, r.a): r for r in table_rows()}
    assert rows[(1, 1)].s.name == "U + H5"
    assert rows[(1, 1)].t.name == "E8(-1) + E8(-1) + H5 + <-2>"
    assert rows[(5, 3)].t.name == "U(5) + <-10>"


def test_every_row_verifies():
    for row in table_rows():
        report = verify_row(row)
        assert report.passed, (row.m, row.a, report.checks)
        assert report.values["rank_s"] + report.values["rank_t"] == 23
        # |D_T| = 2 |D_S| row by row
        assert prod(discriminant_group(row.t)) == 2 * prod(discriminant_group(row.s))


def test_candidate_pairs_match():
    pairs = candidate_pairs()
    assert tuple(pairs) == EXPECTED_PAIRS
    assert len(pairs) == 10
    assert (5, 3) in pairs and (4, 0) in pairs
    assert (5, 5) not in pairs  # 23 - 20 = 3 < 5


def test_excluded_pairs_are_the_unimodular_parity_failures():
    # for a = 0, S is even unimodular of signature (2, (p - 1) m - 2), and
    # an even unimodular lattice has signature 0 mod 8 (Serre, A Course in
    # Arithmetic, ch. V), which rules out exactly the excluded pairs
    failing = {(m, a) for m, a in EXPECTED_PAIRS
               if a == 0 and (2 - ((ORDER - 1) * m - 2)) % 8}
    assert failing == set(EXCLUDED_PAIRS) == {(2, 0), (4, 0)}


def test_synthetic_bad_rows_fail():
    rows = {(r.m, r.a): r for r in table_rows()}
    base = rows[(2, 2)]
    bad_parity = ClassificationRow(2, 1, base.s, base.t)
    assert not verify_row(bad_parity).checks["parity"]
    swapped = ClassificationRow(1, 1, base.s, base.t)
    report = verify_row(swapped)
    assert not report.passed
    assert not report.checks["rank_s"]


def test_verify_53_complement():
    assert verify_53_complement()
    target = complement_form_target()
    assert fqf_isomorphic(target, target)
    too_small = direct_sum(make_standard("U(5)"), make_standard("<-2>"))
    assert not fqf_isomorphic(discriminant_form(too_small), target)


def test_verify_all_report():
    report = verify_all()
    assert report.passed
    assert report.pairs_ok and report.table_pairs_ok and report.complement_ok
    assert all(r.necessary_conditions_only for r in report.row_reports)


def test_verify_all_with_corrupted_table(monkeypatch):
    import kummerlat.classification as classification

    rows = table_rows()
    bad = rows[:7] + [ClassificationRow(5, 3, rows[7].s, rows[0].t)]
    monkeypatch.setattr(classification, "table_rows", lambda: bad)
    report = verify_all()
    assert not report.passed


def test_44_row_presentation_probe():
    # two presentations of the (4, 4) coinvariant block agree on signature,
    # determinant, and discriminant form
    l1 = direct_sum(make_standard("U(5)"), make_standard("A4(-1)"))
    l2 = direct_sum(make_standard("U"), make_standard("A4*(-5)"))
    assert signature(l1) == signature(l2)
    assert l1.det == l2.det
    assert fqf_isomorphic(discriminant_form(l1), discriminant_form(l2))


def test_verify_all_takes_one_smith_form_per_lattice(monkeypatch):
    # no whole-Gram Smith form: the discriminant groups of S and T and the
    # discriminant forms of T and of the (5, 3) complement read the Smith
    # forms of the eight distinct blocks, once each on cleared memos
    import kummerlat.lattices as lattices

    calls = []
    real = lattices.smith_normal_form

    def counted(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(lattices, "smith_normal_form", counted)
    rows = table_rows()
    assert not calls
    lattices._block_signature.cache_clear()
    lattices._block_form.cache_clear()
    assert verify_all().passed
    # U, U(5), H5, <-2>, <-10>, A4(-1), A4*(-5), E8(-1); every T has rank 3 or more
    blocks = [(2, 2), (2, 2), (2, 2), (1, 1), (1, 1), (4, 4), (4, 4), (8, 8)]
    assert min(row.t.rank for row in rows) == 3
    assert sorted(calls) == sorted(blocks)


def test_verify_all_reads_each_distinct_block_once():
    # the 17 lattices of verify_all are sums of 8 distinct blocks: with cold
    # memos, 8 block eliminations and 8 block forms, and none more on a second run
    import kummerlat.lattices as lattices

    lattices._block_signature.cache_clear()
    lattices._block_form.cache_clear()
    assert verify_all().passed
    assert lattices._block_signature.cache_info().misses == 8
    assert lattices._block_form.cache_info().misses == 8
    assert verify_all().passed
    assert lattices._block_signature.cache_info().misses == 8
    assert lattices._block_form.cache_info().misses == 8


def test_table_rows_share_their_standard_lattices(monkeypatch):
    # two tables sum the same eight standard lattice objects, each validated once
    import kummerlat.classification as classification

    pieces = []
    real = classification.direct_sum

    def recording(*lattices, **kwargs):
        pieces.append(lattices)
        return real(*lattices, **kwargs)

    monkeypatch.setattr(classification, "direct_sum", recording)
    assert table_rows() == table_rows()
    first, second = pieces[:16], pieces[16:]
    assert len(first) == len(second) == 16
    assert all(a is b for x, y in zip(first, second) for a, b in zip(x, y, strict=True))
    assert len({id(lat) for lats in pieces for lat in lats}) == 8


def test_verify_all_takes_one_signature_per_lattice(monkeypatch):
    # S and T of eight rows, plus the standalone (5, 3) complement check,
    # whose U(5) + <-10> is also the T of its row: 17 lattices on 16 Gram
    # matrices, each split into its blocks once and its signature read once
    import kummerlat.classification as classification
    import kummerlat.lattices as lattices

    grams, signatures = [], []
    split, read = lattices._blocks, classification._signature

    def counted_split(gram):
        grams.append(gram)
        return split(gram)

    def counted_read(blocks):
        signatures.append(blocks)
        return read(blocks)

    # the public readers split through lattices._blocks, verify_row through its import
    monkeypatch.setattr(lattices, "_blocks", counted_split)
    monkeypatch.setattr(classification, "_blocks", counted_split)
    monkeypatch.setattr(classification, "_signature", counted_read)
    assert verify_all().passed
    assert len(grams) == 17 and len(set(grams)) == 16
    assert len(signatures) == 17
