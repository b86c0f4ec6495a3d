"""Catalog integrity, fingerprints, and identification."""

import pytest

from nilcert import catalog, files
from nilcert.algebra import StructureTable
from nilcert.sampling import derive_rng, random_invertible
from nilcert.scalars import GaussianRational


def test_signed_entry_of_a09():
    table = catalog.get("A_09").table
    assert table.entry(1, 2, 4) == GaussianRational(-1)
    assert table.entry(2, 1, 4) == GaussianRational(-1)


def test_zero_algebra_entry():
    assert catalog.get("C5").table == StructureTable.zero_algebra(5)


def test_sum_valued_product_of_a07():
    table = catalog.get("A_07").table
    assert table.entry(0, 1, 3) == GaussianRational(1)
    assert table.entry(0, 1, 4) == GaussianRational(1)


def shipped_text_with(monkeypatch, file_name, edit):
    """Serve the shipped data with one algebra file's text edited."""
    real = files.data_text

    def data_text(*parts):
        text = real(*parts)
        return edit(text) if parts == ("algebras", file_name) else text

    monkeypatch.setattr(files, "data_text", data_text)


def test_catalog_reads_its_shipped_file(monkeypatch):
    shipped = catalog.get("A_24").table
    shipped_text_with(monkeypatch, "a24.alg",
                      lambda text: text.replace("= e_2", "= 3 e_2"))
    catalog.get.cache_clear()
    try:
        table = catalog.get("A_24").table
    finally:
        catalog.get.cache_clear()
    assert table != shipped
    assert table.entry(0, 0, 1) == GaussianRational(3)


def test_shipped_file_must_name_its_algebra(monkeypatch):
    shipped_text_with(monkeypatch, "a24.alg",
                      lambda text: text.replace("algebra A_24", "algebra A_23"))
    catalog.get.cache_clear()
    try:
        with pytest.raises(files.FileFormatError, match="a24.alg holds A_23"):
            catalog.get("A_24")
    finally:
        catalog.get.cache_clear()


@pytest.mark.parametrize("name", ["A_99", "A_25", "../witnesses/a01_to_a02"])
def test_unknown_name_reads_no_file(monkeypatch, name):
    def no_read(*parts):
        raise AssertionError(f"read {parts}")

    monkeypatch.setattr(files, "data_text", no_read)
    monkeypatch.setattr(files, "load_shipped_algebra", no_read)
    with pytest.raises(catalog.UnknownAlgebraError):
        catalog.get(name)


def test_every_entry_is_in_the_variety():
    for name in catalog.names():
        table = catalog.get(name).table
        report = table.check_identities()
        assert report.commutative and report.associative, name
        assert catalog.fingerprint(table).nilpotency_index > 0, name


def test_identify_builds_one_power_chain_per_input(monkeypatch):
    catalog.fingerprint_collisions()  # warm the catalog fingerprint cache
    calls = []
    real = catalog.power_chain

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(catalog, "power_chain", counted)
    rng = derive_rng(3, "identify-chain")
    for name in ("A_01", "A_11", "A_24", "C5"):
        moved = catalog.get(name).table.change_basis(random_invertible(rng, 5))
        assert name in catalog.identify(moved)
    assert len(calls) == 4


def test_expected_derivation_dimensions_all_match():
    for name in catalog.names():
        entry = catalog.get(name)
        fp = catalog.fingerprint(entry.table)
        assert fp.dim_der == entry.expected_der_dim, name


def test_fingerprint_values():
    fp_a21 = catalog.fingerprint(catalog.get("A_21").table)
    assert fp_a21.ann_dim == 1 and fp_a21.dim_der == 11

    fp_c5 = catalog.fingerprint(catalog.get("C5").table)
    assert fp_c5 == catalog.InvariantFingerprint(25, (0, 0, 0, 0), 5, 2)


def test_a10_and_a14_share_der_dim_but_differ_in_powers():
    fp10 = catalog.fingerprint(catalog.get("A_10").table)
    fp14 = catalog.fingerprint(catalog.get("A_14").table)
    assert fp10.dim_der == fp14.dim_der == 9
    assert fp10.power_dims != fp14.power_dims


def test_power_dims_are_non_increasing():
    for name in catalog.names():
        fp = catalog.fingerprint(catalog.get(name).table)
        assert all(a >= b for a, b in zip(fp.power_dims, fp.power_dims[1:])), name
        assert fp.ann_dim >= 1


def test_identify_unique_for_a13():
    assert catalog.identify(catalog.get("A_13").table) == ["A_13"]


def test_identify_zero_algebra():
    assert catalog.identify(StructureTable.zero_algebra(5)) == ["C5"]


def test_identify_contains_self_for_every_entry():
    for name in catalog.names():
        assert name in catalog.identify(catalog.get(name).table), name


def test_documented_collision_class():
    # A_11 and A_15 share every fingerprint component; identify reports both
    assert catalog.fingerprint_collisions() == (("A_11", "A_15"),)
    assert catalog.identify(catalog.get("A_11").table) == ["A_11", "A_15"]
    assert catalog.identify(catalog.get("A_15").table) == ["A_11", "A_15"]


def test_identify_rejects_non_variety_input():
    asymmetric = StructureTable(5, {(0, 1, 2): GaussianRational(1)})
    with pytest.raises(catalog.NotInVarietyError):
        catalog.identify(asymmetric)
    idempotent = StructureTable(5, {(0, 0, 0): GaussianRational(1)})
    with pytest.raises(catalog.NotInVarietyError):
        catalog.identify(idempotent)


def test_identify_invariant_under_random_basis_change():
    rng = derive_rng(17, "identify-invariance")
    for name in ("A_03", "A_16", "A_22"):
        want = catalog.identify(catalog.get(name).table)
        for _ in range(3):
            m = random_invertible(rng, 5)
            moved = catalog.get(name).table.change_basis(m)
            assert catalog.identify(moved) == want, name
            assert name in catalog.identify(moved)
