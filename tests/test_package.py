import kummerlat


def test_exports_resolve():
    assert [name for name in kummerlat.__all__ if not hasattr(kummerlat, name)] == []


def test_cyclotomic_reference_is_not_exported():
    # the cyclotomic field arithmetic lives in tests/cyclotomic_reference.py
    for name in ("CyclotomicNumber", "euler_phi", "cyclotomic_polynomial"):
        assert not hasattr(kummerlat, name)
        assert name not in kummerlat.__all__
