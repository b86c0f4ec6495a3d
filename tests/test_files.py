"""File formats: round trips, shipped-data integrity, and loader errors."""

import time
from itertools import combinations_with_replacement, islice

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
    *flags, poly = poly_row.spec.conjuncts
    assert flags == [FlagContainment(1, 3, 4), FlagContainment(1, 4, None),
                     FlagContainment(2, 2, 4), FlagContainment(2, 3, None)]
    assert isinstance(poly, PolynomialEq)


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
    # constants are read in Q(i): no t at all, and no roots, not even of a
    # square
    for rhs in ("sqrt(4) e_3", "sqrt(-4) e_3", "sqrt(2) e_3", "(t/t) e_3"):
        with pytest.raises(files.FileFormatError,
                           match=r"^line 3: .*\(at position \d+\)$"):
            files.load_algebra(f"algebra X\ndim 5\ne_1 * e_2 = {rhs}")


@pytest.mark.parametrize("text, lineno", [
    ("witness A_23 -> A_24\nE_x = e_1\n", 2),
    ("witness A_23 -> A_24\ndim five\n", 2),
    ("algebra X\n\ndim five\n", 3),
    ("witness A_23 -> A_24\nE_1 e_1\n", 2),
    ("witness A_23 -> A_24\nE_1 = e_1 +\n", 2),
    ("algebra X\ndim 5\ne_1 * e_2 = e_3 +\n", 3),
    ("algebra X\ndim 5\ne_1 * e_1 = e_2 +\u00a00 e_1\n", 3),
    ("claim A_05 !-> A_15\nrequire 0^0 e_1\n", 2),
    # blanks and digits are ASCII in every field, as in the grammar
    ("algebra X\ndim 5\ne_1 * e_1 =\u00a0e_2\n", 3),
    ("algebra X\ndim 5\ne_1 * e_1 = e_2\u3000\n", 3),
    ("algebra X\ndim 5\n\u00a0e_1 * e_1 = e_2\n", 3),
    ("algebra X\ndim \u0665\n", 2),
    ("algebra X\ndim 1_0\n", 2),
    ("witness A_23 -> A_24\nE_\u0661 = e_1\n", 2),
    # dim comes before the rows it sizes
    ("witness A_23 -> A_24\nE_1 = e_1\ndim 6\n", 3),
    # lines end at line feeds only; \x1c is no blank and no line break
    ("algebra X\ndim 5\ne_1 * e_1 = e_2\x1ce_3\n", 3),
    # int() refuses more than 4300 digits
    ("algebra X\ndim " + "1" * 5000 + "\n", 2),
    ("witness A_23 -> A_24\nE_" + "1" * 5000 + " = e_1\n", 2),
])
def test_loader_errors_name_their_line(text, lineno):
    load = {"algebra": files.load_algebra, "witness": files.load_witness,
            "claim": files.load_claims}[text.split()[0]]
    with pytest.raises(files.FileFormatError, match=f"^line {lineno}: "):
        load(text)


OVERSIZED_POWERS = ("(1+t)^800 e_1", "t^100000000 e_1", "((1+t)^64)^64 e_1",
                    "(t^64)^64 e_1", "((((2^64)^64)^64)^64)^64 e_1")
HUNDRED_TERMS = "({})".format(" + ".join(
    f"c({i},{j},{k})" for i in range(1, 5) for j in range(1, 6)
    for k in range(1, 6)))
# a sum's degree in t grows with each term through the common denominator
RECIPROCAL_SUMS = {n: " + ".join(f"1/(t+{k}) e_1" for k in range(1, n + 1))
                   for n in (80, 160)}
# a power of one atom in many monomials of high degree
ONE_ATOM_POLY = "(1 + {})".format(" + ".join(
    f"c(1,1,2)^{k}" for k in range(1, 60)))
# juxtaposed 1000-digit literals: left unchecked, each product's coefficient
# grows by some 3300 bits, so the line costs time quadratic in its length
LONG_LITERALS = " ".join(["7" * 1000] * 400)
# every juxtaposed factor of a large legal value costs its size: a 3000-term
# sum of size 9000, and the square of a 50-term sum
C_ATOMS = [f"c({i},{j},{k})" for i in range(1, 6) for j in range(1, 6)
           for k in range(1, 6)]
PRODUCT_CHAINS = {
    "3000-term-sum-times-100-factors": "({}){}".format(" + ".join(
        f"{a}*{b}" for a, b in islice(combinations_with_replacement(C_ATOMS, 2),
                                      3000)), " 2" * 100),
    "square-of-50-term-sum-times-612-factors": "({})^2{}".format(
        " + ".join(C_ATOMS[:50]), " 2" * 612),
}


@pytest.mark.parametrize("load, text", [
    *[(files.load_algebra, f"algebra X\ndim 5\ne_1 * e_1 = {rhs}\n")
      for rhs in OVERSIZED_POWERS],
    *[(files.load_witness, f"witness A_23 -> A_24\nE_1 = {rhs}\n")
      for rhs in OVERSIZED_POWERS],
    # powers that cost seconds each, and their products and quotients: each
    # is refused before it is formed
    (files.load_witness,
     "witness A_23 -> A_24\nE_1 = ((1-2t+t^3)/(3+t^2))^42 e_1\n"),
    (files.load_witness, "witness A_23 -> A_24\n"
     "E_1 = ((1-2t+t^3)/(3+t^2))^42 ((1+t+t^3)/(5+t^2))^42 e_1\n"),
    (files.load_witness, "witness A_23 -> A_24\n"
     "E_1 = ((1-2t+t^3)/(3+t^2))^10 ((1+t+t^3)/(5+t^2))^10 e_1\n"),
    (files.load_witness,
     "witness A_23 -> A_24\nE_1 = ((1-2t+t^3)^10 / (3+t^2)^10) e_1\n"),
    pytest.param(files.load_claims, "claim A_05 !-> A_15\n"
                 f"require poly {HUNDRED_TERMS * 4} = 0\n",
                 id="poly-four-100-term-sums"),
    (files.load_claims,
     "claim A_05 !-> A_15\nrequire poly (c(1,1,2)+c(1,1,3))^800 = 0\n"),
    (files.load_claims, "claim A_05 !-> A_15\n"
     "require poly (c(1,1,1)+c(1,1,2)+c(1,1,3))^64 = 0\n"),
    (files.load_claims,
     "claim A_05 !-> A_15\nrequire poly ((2^64)^64)^64 * c(1,1,2) = 0\n"),
    # a power of a non-scalar keeps the coefficient-bit rule
    pytest.param(files.load_claims, "claim A_05 !-> A_15\n"
                 f"require poly (({'7' * 4300} c(1,1,2))^64)^64 = 0\n",
                 id="poly-power-of-long-literal"),
    (files.load_claims, "claim A_05 !-> A_15\n"
     "require poly (((2^64)^15 c(1,1,2))^64)^64 = 0\n"),
    # a power of one monomial is one monomial, whose size is its degree
    (files.load_claims, "claim A_05 !-> A_15\n"
     "require poly (((c(1,1,2)^64)^64)^64)^64 = 0\n"),
    (files.load_claims, "claim A_05 !-> A_15\n"
     "witness A_05 : ((1+i)^64)^64 e_1, e_2, e_3, e_4, e_5\n"),
    # refused at the first sum past MAX_T_DEGREE, after the legal ones
    *[pytest.param(files.load_witness,
                   f"witness A_23 -> A_24\nE_1 = {RECIPROCAL_SUMS[n]}\n",
                   id=f"sum-of-{n}-reciprocals") for n in (80, 160)],
    # refused at the second product: few monomials, but many atoms each
    *[pytest.param(files.load_claims, "claim A_05 !-> A_15\n"
                   f"require poly {ONE_ATOM_POLY}^{k} = 0\n",
                   id=f"one-atom-poly-power-{k}") for k in (8, 16)],
    # a product's coefficient bits are predicted, like a power's
    pytest.param(files.load_claims, "claim A_05 !-> A_15\n"
                 f"require poly c(1,1,1) {LONG_LITERALS} = 0\n",
                 id="poly-times-400-long-literals"),
    pytest.param(files.load_algebra, "algebra X\ndim 5\n"
                 f"e_1 * e_1 = ({LONG_LITERALS}) e_1\n",
                 id="constants-of-400-long-literals"),
    # refused once the work of the line's operations exceeds its budget
    *[pytest.param(files.load_claims, "claim A_05 !-> A_15\n"
                   f"require poly {PRODUCT_CHAINS[key]} = 0\n", id=key)
      for key in sorted(PRODUCT_CHAINS)],
])
def test_oversized_powers_are_refused_quickly(load, text):
    started = time.perf_counter()
    with pytest.raises(files.FileFormatError,
                       match=r"^line \d+: .* \(at position \d+\)$"):
        load(text)
    assert time.perf_counter() - started < 1.0


DEEP_NESTING = {"paren": "(" * 3000 + "{}" + ")" * 3000,
                "minus": "-" * 3000 + "{}"}
NESTED_LINES = {  # loader, file text around the nested value, its line
    "algebra": (files.load_algebra, "algebra X\ndim 5\ne_1 * e_1 = {}\n", 3),
    "witness": (files.load_witness, "witness A_23 -> A_24\nE_1 = {}\n", 2),
    "claims-poly": (files.load_claims,
                    "claim A_05 !-> A_15\nrequire poly {} = 0\n", 2),
    "claims-witness": (files.load_claims, "claim A_05 !-> A_15\n"
                       "witness A_05 : e_1, {}, e_3, e_4, e_5\n", 2),
}


@pytest.mark.parametrize("nesting", sorted(DEEP_NESTING))
@pytest.mark.parametrize("line", sorted(NESTED_LINES))
def test_deep_nesting_is_a_format_error(line, nesting):
    load, text, lineno = NESTED_LINES[line]
    value = "c(1,1,2)" if line == "claims-poly" else "e_2"
    with pytest.raises(files.FileFormatError,
                       match=rf"^line {lineno}: nesting exceeds \d+ "
                             r"\(at position \d+\)$"):
        load(text.format(DEEP_NESTING[nesting].format(value)))


def test_paper_row_of_a02_to_a06_is_kept_only_as_a_comment():
    # the paper's basis adjoins sqrt((-1 - t^3)/t); the shipped file keeps
    # that row as a comment, and put back as a row it is an input error
    paper_row = "E_4 = sqrt((-1 - t^3)/t) e_2 + t e_3"
    text = files.data_text("witnesses", "a02_to_a06.wit")
    assert f"#   {paper_row}" in text
    lines = text.splitlines()
    row = lines.index("E_4 = t^-1 e_2")
    lines[row] = paper_row
    with pytest.raises(files.FileFormatError,
                       match=rf"^line {row + 1}: .*\(at position 0\)$"):
        files.load_witness("\n".join(lines))


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
    "witness A_05 : sqrt(1) e_1, e_2, e_3, e_4, e_5",
    "require A_1^1000000 = 0",
    "require A_1^65 = 0",
    "require ann >= -3",
    "require ann >= 6",
    "require ann >= 1000000000",
    "require ann >= " + "9" * 5000,
    "require A_1^\u0662 = 0",
    "require A_1^1_0 = 0",
    # a witness line names a source of its claim, once
    "witness A_31 : e_1, e_2, e_3, e_4, e_5",
    "witness A_05 : e_1, e_2, e_3, e_4, e_5\n"
    "witness A_05 : e_2, e_1, e_3, e_4, e_5",
])
def test_claims_loader_rejects_malformed_lines(line):
    with pytest.raises(files.FileFormatError, match=r"^line \d+: "):
        files.load_claims(f"claim A_05 !-> A_15\n{line}\n")


def test_claims_loader_accepts_the_ends_of_each_range():
    for line, conj in (("require A_1^64 = 0", PowerVanish(1, 64)),
                       ("require A_5^1 = 0", PowerVanish(5, 1)),
                       ("require ann >= 0", AnnDimAtLeast(0)),
                       ("require ann >= 5", AnnDimAtLeast(5))):
        claim, = files.load_claims(f"claim A_05 !-> A_15\n{line}\n")
        assert claim.spec.conjuncts == (conj,)


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
