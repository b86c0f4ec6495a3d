"""File formats: round trips, shipped-data integrity, and loader errors."""

import pytest

from nilcert import catalog, files
from nilcert.certificates import (AnnDimAtLeast, FlagContainment,
                                  PolynomialEq, PowerVanish)
from nilcert.scalars import GaussianRational


def test_shipped_data_inventory():
    assert len(files.witness_ids()) == 44
    assert len(files.load_shipped_claims()) == 8
    assert len(files.load_reference_edges()) == 44
    assert len(files.algebra_file_names()) == 25


def test_algebra_files_round_trip_to_the_catalog():
    for file_name in files.algebra_file_names():
        name, table = files.load_shipped_algebra(file_name)
        assert table == catalog.get(name).table, file_name
        dumped = files.dump_algebra(name, table)
        name2, table2 = files.load_algebra(dumped)
        assert name2 == name and table2 == table
        assert files.dump_algebra(name2, table2) == dumped  # print fixed point


def test_witness_files_round_trip():
    for wid in files.witness_ids():
        witness = files.load_shipped_witness(wid)
        dumped = files.dump_witness(witness)
        again = files.load_witness(dumped)
        assert again.source == witness.source
        assert again.target == witness.target
        assert again.matrix.rows == witness.matrix.rows, wid
        assert files.dump_witness(again) == dumped


def test_witness_sources_and_targets_are_catalog_names():
    names = set(catalog.names())
    for wid, witness in files.load_all_witnesses():
        assert witness.source in names and witness.target in names, wid
        assert wid == (witness.source.lower().replace("_", "") + "_to_"
                       + witness.target.lower().replace("_", "")), wid


def test_claims_file_structure():
    claims = files.load_shipped_claims()
    by_desc = {tuple(c.sources): c for c in claims}
    row = by_desc[("A_03",)]
    assert row.targets == ("A_05", "A_07")
    assert row.spec.conjuncts == (PowerVanish(1, 4), PowerVanish(3, 2),
                                  FlagContainment(1, 3, 5))
    ann_row = by_desc[("A_05", "A_06", "A_07")]
    assert ann_row.spec.conjuncts == (AnnDimAtLeast(2),)
    witness_row = by_desc[("A_13",)]
    assert "A_13" in witness_row.witness_bases
    matrix = witness_row.witness_bases["A_13"]
    assert matrix[0][2] == GaussianRational(1)  # f_1 = e_3
    poly_row = by_desc[("A_05",)]
    kinds = [type(c) for c in poly_row.spec.conjuncts]
    assert kinds == [FlagContainment, PolynomialEq]
    assert poly_row.spec.conjuncts[0] == FlagContainment(2, 3, None)


def test_reference_edges_shape():
    edges = files.load_reference_edges()
    names = set(catalog.names())
    assert all(a in names and b in names for a, b in edges)
    assert ("A_24", "C5") in edges
    assert len(set(edges)) == len(edges)


def test_algebra_loader_rejects_bad_input():
    with pytest.raises(files.FileFormatError):
        files.load_algebra("dim 5\ne_1 * e_2 = e_3")  # missing name
    with pytest.raises(files.FileFormatError):
        files.load_algebra("algebra X\ndim 5\ne_9 * e_1 = e_2")
    with pytest.raises(files.FileFormatError):
        files.load_algebra("algebra X\ndim 5\ne_1 * e_2 = t e_3")


def test_witness_loader_requires_all_rows():
    text = "witness A_23 -> A_24\nE_1 = e_1\n"
    with pytest.raises(files.FileFormatError):
        files.load_witness(text)
    dup = ("witness A_23 -> A_24\n" + "\n".join(
        f"E_{i} = e_{i}" for i in (1, 2, 3, 4, 4)))
    with pytest.raises(files.FileFormatError):
        files.load_witness(dup)


def test_raw_table_mode_skips_symmetrization():
    text = ("algebra X\ndim 5\nfield Q(i)\ntable raw\n"
            "e_1 * e_2 = e_3\n")
    _, table = files.load_algebra(text)
    assert table.entry(0, 1, 2) == GaussianRational(1)
    assert table.entry(1, 0, 2) == GaussianRational(0)
    assert not table.check_identities().commutative


def test_claims_loader_rejects_conditions_outside_blocks():
    with pytest.raises(files.FileFormatError):
        files.load_claims("require A_1^2 = 0\n")


@pytest.mark.parametrize("line", [
    "require A_0 A_1 = 0",
    "require A_1 A_6 = 0",
    "require A_1 A_1 <= A_6",
    "require A_6^2 = 0",
    "require A_1^0 = 0",
    "require A_1^-1 = 0",
    "require A_x A_1 = 0",
    "require A_1 A_1 <= A_y",
    "require A_1^k = 0",
    "require A_1 A_2 A_3 = 0",
    "require ann >= x",
    "require poly c(9,1,1) = 0",
    "require poly c(0,1,1) = 0",
    "require poly c(9,9,9) = 0",
    "require poly c(1,2 = 0",
    "require poly c(a,1,1) = 0",
    "require poly t*c(1,1,2) = 0",
    "require poly sqrt(2)*c(1,1,2) = 0",
    "require poly e_1*c(1,1,2) = 0",
    "require poly c(1,1,2)/c(1,2,3) = 0",
    "require poly c(1,1,2)/0 = 0",
    "witness A_05 : e_1, e_2, e_3, e_4, e_9",
])
def test_claims_loader_rejects_malformed_lines(line):
    with pytest.raises(files.FileFormatError):
        files.load_claims(f"claim A_05 !-> A_15\n{line}\n")


def test_claims_round_trip():
    claims = files.load_shipped_claims()
    dumped = files.dump_claims(claims)
    again = files.load_claims(dumped)
    assert len(again) == len(claims)
    for a, b in zip(claims, again):
        assert a.sources == b.sources and a.targets == b.targets
        assert a.spec == b.spec
        assert a.witness_bases == b.witness_bases
    assert files.dump_claims(again) == dumped  # print fixed point


def test_edge_list_round_trip():
    edges = files.load_reference_edges()
    assert files.load_edges(files.dump_edges(edges)) == edges
