"""Witness verification: invertibility, transformed constants, limits,
verdicts, semicontinuity along verified edges, and the numeric cross-check."""

import json
import random
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from nilcert import catalog, degeneration, files, scalars
from nilcert.degeneration import (DegenerationWitness, ParametricMatrix,
                                  SingularFamilyError, generic_invertibility,
                                  limit_table, numeric_crosscheck,
                                  transformed_constants, verify)
from nilcert.linalg import invert_matrix
from nilcert.parser import parse_expression
from nilcert.sampling import derive_rng, random_borel_matrix, random_invertible
from nilcert.scalars import (POLY_ONE, POLY_T, RF_ONE, RF_T, RF_ZERO, Poly,
                             RationalFunction)


def matrix_of(lines):
    return ParametricMatrix([parse_expression(line) for line in lines])


def identity_matrix():
    return matrix_of(["e_1", "e_2", "e_3", "e_4", "e_5"])


def lifted(table):
    """The constants of a Q(i) table as constant (numerator, denominator)
    pairs."""
    return {key: (Poly.const(c), POLY_ONE) for key, c in table.entries.items()}


def reduced(constants):
    """(numerator, denominator) pairs as rational functions in lowest terms."""
    return {key: RationalFunction(*pair) for key, pair in constants.items()}


A23_TO_A24 = ["t e_1 + e_2", "2t e_3", "2t e_2", "e_4", "e_5"]
A02_TO_A06 = ["e_1", "e_3", "e_4", "t^-1 e_2", "t^-2 e_5"]


# -- generic invertibility ---------------------------------------------------------


def test_identity_is_invertible():
    assert generic_invertibility(identity_matrix())


def test_table_witness_matrix_is_invertible():
    assert generic_invertibility(matrix_of(A23_TO_A24))


def test_repeated_rows_are_singular():
    m = matrix_of(["e_1", "e_1", "e_3", "e_4", "e_5"])
    assert not generic_invertibility(m)
    with pytest.raises(SingularFamilyError):
        transformed_constants(catalog.get("A_23").table, m)


# -- transformed constants -----------------------------------------------------------


def test_identity_basis_returns_own_table():
    table = catalog.get("A_23").table
    moved = transformed_constants(table, identity_matrix())
    assert reduced(moved) == reduced(lifted(table))


def test_a23_constants_by_hand():
    # E_1 = t e_1 + e_2, E_2 = 2t e_3, E_3 = 2t e_2: E_1^2 = E_2 and
    # E_1 E_3 = t E_2, so c(1,1,2) = 1 and c(1,3,2) = t
    moved = reduced(transformed_constants(catalog.get("A_23").table,
                                          matrix_of(A23_TO_A24)))
    assert moved[(0, 0, 1)] == RF_ONE
    assert moved[(0, 2, 1)] == RF_T


def test_a02_constants_by_hand():
    # E_1^2 = E_2, E_1 E_2 = E_3 and E_4^2 = t^-2 e_5 = E_5, while
    # E_1 E_3 = E_2^2 = e_5 = t^2 E_5 vanish in the limit
    moved = transformed_constants(catalog.get("A_02").table, matrix_of(A02_TO_A06))
    values = reduced(moved)
    for ijk in ((0, 0, 1), (0, 1, 2), (3, 3, 4)):
        assert values[ijk] == RF_ONE, ijk
    assert values[(0, 2, 4)] == RF_T ** 2
    assert values[(1, 1, 4)] == RF_T ** 2
    assert limit_table(moved, 5) == catalog.get("A_06").table


def test_rational_a02_family_has_no_exceptional_values():
    # the rows permute e_2, e_3, e_4 cyclically and scale two of them
    m = matrix_of(A02_TO_A06)
    assert m.det() == RF_T ** -3
    assert m.exceptional_values() == []


# -- limit tables ----------------------------------------------------------------------


def test_limit_of_a23_constants():
    moved = transformed_constants(catalog.get("A_23").table, matrix_of(A23_TO_A24))
    limit = limit_table(moved, 5)
    assert limit == catalog.get("A_24").table


def test_limit_failure_carries_index():
    bad = {(0, 0, 1): (POLY_ONE, POLY_T)}
    from nilcert.degeneration import LimitFailure
    with pytest.raises(LimitFailure) as err:
        limit_table(bad, 5)
    assert err.value.index == (1, 1, 2)


def test_constant_table_is_its_own_limit():
    table = catalog.get("A_12").table
    assert limit_table(lifted(table), 5) == table


def test_constant_bases_match_the_gaussian_integer_change_of_basis():
    # two independent conjugations: Gauss-Jordan over Q(i)(t) with products
    # on the rows, and StructureTable.change_basis in Gaussian integers
    rng = derive_rng(10, "constant-bases")
    for name in catalog.names():
        table = catalog.get(name).table
        for basis in (random_invertible(rng, 5), random_borel_matrix(rng, 5)):
            moved = transformed_constants(table, ParametricMatrix(basis))
            assert limit_table(moved, 5) == table.change_basis(basis), name


# -- verdicts ------------------------------------------------------------------------------


def test_shipped_witness_verifies():
    for wid, source, target in (("a23_to_a24", 14, 17), ("a02_to_a06", 6, 7)):
        verdict = verify(files.load_shipped_witness(wid))
        assert verdict.verified, wid
        assert verdict.details["dim_der"] == {"source": source, "target": target}


def test_trivial_self_witness():
    verdict = verify(DegenerationWitness("A_24", "A_24", identity_matrix()))
    assert verdict.verified


def test_wrong_direction_is_a_mismatch():
    verdict = verify(DegenerationWitness("A_24", "A_23", identity_matrix()))
    assert verdict.status == "LIMIT_MISMATCH"
    assert verdict.details["mismatched_entries"]


def test_diverging_family_reported():
    m = matrix_of(["(1/t) e_1", "e_2", "e_3", "e_4", "e_5"])
    verdict = verify(DegenerationWitness("A_24", "A_24", m))
    assert verdict.status == "LIMIT_DIVERGES"
    assert verdict.details["failed_at"] == (1, 1, 2)


def test_exceptional_values_recorded():
    verdict = verify(files.load_shipped_witness("a01_to_a03"))
    assert verdict.verified
    # the powers (t - 2/3)^k of the entries' denominators, made monic
    assert verdict.details["exceptional_t_polys"] == [
        "-2/3 + t", "-8/27 + 4/3*t + -2*t^2 + t^3", "4/9 + -4/3*t + t^2"]


@pytest.mark.parametrize("constant", [
    "10000019", "123456789012345678901234567891"])
def test_exceptional_polys_need_no_root_search(constant):
    rows = A23_TO_A24[:4] + [f"(1/(t + {constant})) e_5"]
    started = time.perf_counter()
    verdict = verify(DegenerationWitness("A_23", "A_24", matrix_of(rows)))
    assert time.perf_counter() - started < 10
    assert verdict.verified
    assert verdict.details["exceptional_t_polys"] == [f"{constant} + t"]


def dense_moebius_witness_text():
    """A_01 -> A_01 with all 25 entries ((a + b t)/(c + d t)), the digits
    a, b, c, d drawn by random.Random(0).randint(1, 9), entry by entry in row
    order: 741 bytes within every parser bound."""
    rng = random.Random(0)
    lines = ["witness A_01 -> A_01"]
    for i in range(5):
        terms = []
        for j in range(5):
            a, b, c, d = (rng.randint(1, 9) for _ in range(4))
            terms.append(f"(({a} + {b} t)/({c} + {d} t)) e_{j + 1}")
        lines.append(f"E_{i + 1} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def test_dense_moebius_witness_is_judged_within_seconds():
    # Gauss-Jordan over Q(i)(t) took 50 s on this witness; the polynomial
    # change of basis takes no gcd but the one of det E
    text = dense_moebius_witness_text()
    assert len(text) == 741
    witness = files.load_witness(text)
    started = time.perf_counter()
    verdict = verify(witness)
    assert time.perf_counter() - started < 10
    assert verdict.status == "LIMIT_MISMATCH"
    # no denominator vanishes at t = 0, so the limit table is A_01 in the
    # constant basis E(0), by the Gaussian-integer change of basis
    at_zero = [[c.num.coeff(0) / c.den.coeff(0) for c in row]
               for row in witness.matrix.rows]
    source = catalog.get("A_01").table
    limit = source.change_basis(at_zero)
    want = [{"index": [i + 1, j + 1, k + 1], "got": repr(limit.entry(i, j, k)),
             "want": repr(source.entry(i, j, k))}
            for i, j, k in sorted(limit.entries.keys() | source.entries.keys())
            if limit.entry(i, j, k) != source.entry(i, j, k)]
    assert verdict.details["mismatched_entries"] == want
    assert len(want) == 125
    assert want[0] == {"index": [1, 1, 1], "got": "-357435403/363160791", "want": "0"}


@pytest.mark.parametrize("wid", ["a01_to_a02", "a02_to_a04", "a02_to_a07"])
def test_gaussian_monomial_determinant_lists_nothing(wid):
    # det = c t^k with a non-real c: it has no nonzero root
    witness = files.load_shipped_witness(wid)
    det = witness.matrix.det().num
    assert det.degree == det.order > 0 and det.lead.b
    verdict = verify(witness)
    assert verdict.verified
    assert verdict.details["exceptional_t_polys"] == []


def test_gaussian_determinant_is_listed_monic_without_its_power_of_t():
    # det = i t (t - 2) = i (t^2 - 2t), listed as t - 2
    m = matrix_of(["e_1", "e_2", "i t (t - 2) e_3", "e_4", "e_5"])
    assert repr(m.det()) == "-2*i*t + i*t^2"
    verdict = verify(DegenerationWitness("A_24", "A_24", m))
    assert verdict.verified
    assert verdict.details["exceptional_t_polys"] == ["-2 + t"]


def test_family_determinant_is_computed_once_per_verify(monkeypatch):
    for wid, witness in files.load_all_witnesses():
        with monkeypatch.context() as patch:
            calls = oracles.count_calls(patch, degeneration, "laplace_adjugate")
            gcds = oracles.count_calls(patch, scalars, "poly_gcd")
            verdict = verify(witness)
        assert verdict.verified, wid
        assert len(calls) == 1, wid
        # the breakdown list divides det G by the row denominators instead
        # of reducing det E
        assert not gcds, wid


def conjugated_source_witnesses():
    """(id, source table, matrix, target) for three shipped witnesses whose
    source is conjugated by a seeded Gaussian basis and whose rows are moved
    by its inverse over Q(i)(t), so that the limit is still the target."""
    rng = derive_rng(23, "witness-conjugation")
    for wid in ("a23_to_a24", "a09_to_a11", "a13_to_a21"):
        witness = files.load_shipped_witness(wid)
        source = catalog.get(witness.source).table
        conjugation = random_invertible(rng, 5)
        inverse = invert_matrix(conjugation)
        moved_source = source.change_basis(conjugation)
        lifted_inverse = [[RationalFunction.coerce(c) for c in row]
                          for row in inverse]
        new_rows = []
        for row in witness.matrix.rows:
            new_rows.append([
                sum((row[j] * lifted_inverse[j][k] for j in range(5)),
                    RF_ZERO)
                for k in range(5)])
        yield wid, moved_source, ParametricMatrix(new_rows), witness.target


def test_witness_conjugated_on_the_source_side_still_verifies():
    for wid, source, matrix, target in conjugated_source_witnesses():
        moved = transformed_constants(source, matrix)
        assert limit_table(moved, 5) == catalog.get(target).table, wid


GAUSSIAN_FAMILIES = [
    ("A_24", ["e_1", "e_2", "i t (t - 2) e_3", "e_4", "e_5"]),
    ("A_13", ["t e_1 + (1/(t + i)) e_2", "((2 + i) t/(3 - 2 i t + t^2)) e_1 + i e_2",
              "(1 - i) e_3 + t^2 e_4", "e_4 + ((1 + 2 i)/(1 + i t)) e_5", "i t e_5"]),
]


def test_gaussian_integer_constants_equal_the_rational_oracle():
    # the same unreduced pairs as the change of basis over Q(i)[t]
    cases = [(wid, catalog.get(w.source).table, w.matrix)
             for wid, w in files.load_all_witnesses()]
    moebius = files.load_witness(dense_moebius_witness_text())
    cases.append(("moebius", catalog.get("A_01").table, moebius.matrix))
    cases += [(wid, source, matrix)
              for wid, source, matrix, _ in conjugated_source_witnesses()]
    cases += [(rows[2], catalog.get(name).table, matrix_of(rows))
              for name, rows in GAUSSIAN_FAMILIES]
    for name, source, matrix in cases:
        assert transformed_constants(source, matrix) == \
            oracles.rational_transformed_constants(source, matrix), name


def hostile_witness_text():
    """A_24 -> A_24 with E_i = e_i + sum over j != i of
    t^10 (10^100 + t)/(c + 10^100 t^12) e_j, c = 1..20 in row order, the
    powers of ten written out: every parser bound is met, and det G has
    degree 240 with coefficients of thousands of bits."""
    big, c = 10 ** 100, 0
    lines = ["witness A_24 -> A_24"]
    for i in range(5):
        terms = []
        for j in range(5):
            c += i != j
            terms.append(f"e_{j + 1}" if i == j else
                         f"(({big} t^10 + t^11)/({c} + {big} t^12)) e_{j + 1}")
        lines.append(f"E_{i + 1} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def test_hostile_witness_verifies_without_a_polynomial_gcd(monkeypatch):
    # the gcd that reduced det E did not finish in 15 minutes here
    witness = files.load_witness(hostile_witness_text())
    gcds = oracles.count_calls(monkeypatch, scalars, "poly_gcd")
    limits, limit_table_of = [], degeneration.limit_table

    def recorded(*args):
        limits.append(limit_table_of(*args))
        return limits[-1]

    monkeypatch.setattr(degeneration, "limit_table", recorded)
    started = time.perf_counter()
    verdict = verify(witness)
    assert time.perf_counter() - started < 60
    assert verdict.verified
    assert limits == [catalog.get("A_24").table]
    assert not gcds


def test_shipped_witnesses_print_and_check_as_recorded():
    # golden_witnesses.json holds, per shipped witness, its dump, its
    # breakdown list and the repr of each numeric deviation: a change of
    # representation that moves a printed value or a float fails here
    golden = json.loads((Path(__file__).parent / "golden_witnesses.json").read_text())
    assert sorted(golden) == files.witness_ids()
    for wid, witness in files.load_all_witnesses():
        details = verify(witness).details
        assert {"dump": files.dump_witness(witness),
                "exceptional_t_polys": details["exceptional_t_polys"],
                "numeric": [repr(s["max_deviation"]) for s in details["numeric"]],
                } == golden[wid], wid


def test_semicontinuity_along_every_shipped_witness():
    for wid, witness in files.load_all_witnesses():
        fp_s = catalog.fingerprint(catalog.get(witness.source).table)
        fp_t = catalog.fingerprint(catalog.get(witness.target).table)
        assert fp_s.dim_der < fp_t.dim_der, wid
        assert all(a >= b for a, b in zip(fp_s.power_dims, fp_t.power_dims)), wid
        assert fp_s.ann_dim <= fp_t.ann_dim, wid


def test_limit_tables_stay_in_the_variety():
    for wid in ("a01_to_a02", "a02_to_a06", "a11_to_a17"):
        witness = files.load_shipped_witness(wid)
        moved = transformed_constants(catalog.get(witness.source).table,
                                      witness.matrix)
        limit = limit_table(moved, 5)
        report = limit.check_identities()
        assert report.commutative and report.associative, wid


# -- numeric cross-check --------------------------------------------------------------------


def crosscheck(witness, t_samples):
    return numeric_crosscheck(witness, t_samples, transformed_constants(
        catalog.get(witness.source).table, witness.matrix))


def test_numeric_deviation_is_small_near_zero():
    witness = DegenerationWitness("A_23", "A_24", matrix_of(A23_TO_A24))
    sample = crosscheck(witness, [1e-3])[0]
    assert sample.max_deviation <= 1e-2


def test_numeric_deviation_is_large_far_from_zero():
    witness = DegenerationWitness("A_23", "A_24", matrix_of(A23_TO_A24))
    sample = crosscheck(witness, [1.0])[0]
    assert sample.max_deviation > 0.5


def test_numeric_identity_self_witness_is_exact():
    witness = DegenerationWitness("A_24", "A_24", identity_matrix())
    sample = crosscheck(witness, [1e-3])[0]
    assert sample.max_deviation == 0.0


def test_verify_runs_the_crosscheck_on_its_own_constants():
    for wid in ("a01_to_a02", "a23_to_a24"):
        witness = files.load_shipped_witness(wid)
        assert verify(witness).details["numeric"] == [
            asdict(s) for s in crosscheck(witness, degeneration.NUMERIC_T)]


def scaled_a24_witness(first, rest):
    """A_24 -> A_24 by E_1 = first e_1 and E_k = rest e_k for k > 1: with
    rest = first^2 every constant is the target's, whatever the scale."""
    lines = ["witness A_24 -> A_24", f"E_1 = {first} e_1"]
    lines += [f"E_{k} = {rest} e_{k}" for k in range(2, 6)]
    return files.load_witness("\n".join(lines) + "\n")


@pytest.mark.parametrize("first, rest", [
    ("t^12", "t^24"),  # det G = t^108 divides every unreduced pair
    (str(10 ** 150), str(10 ** 300)),  # det G overflows a float
    (f"1/{10 ** 75}", f"1/{10 ** 150}"),  # det G underflows to 0
], ids=["t-power", "huge", "tiny"])
def test_numeric_crosscheck_survives_extreme_unreduced_pairs(first, rest):
    verdict = verify(scaled_a24_witness(first, rest))
    assert verdict.verified
    assert verdict.details["numeric"] == [{"t": 1e-4, "max_deviation": 0.0}]


def test_numeric_crosscheck_reports_a_value_past_the_float_range_as_inf():
    witness = DegenerationWitness("A_24", "A_24", identity_matrix())
    huge = Poly.const(10 ** 400)
    constants = {(0, 0, 1): (huge * POLY_T ** 90, POLY_T ** 90)}
    assert crosscheck(witness, [1e-4])[0].max_deviation == 0.0
    assert numeric_crosscheck(witness, [1e-4], constants)[0].max_deviation == float("inf")


def test_numeric_crosscheck_matches_float_horner_in_the_float_range():
    # carrying the binary exponent apart changes no bit while no float over-
    # or underflows
    rng = random.Random(7)
    witness = DegenerationWitness("A_24", "A_24", identity_matrix())
    for _ in range(300):
        num, den = (Poly([scalars.gaussian(rng.randint(-9, 9), rng.randint(-9, 9),
                                           rng.randint(1, 9))
                          for _ in range(rng.randint(1, 6))]) for _ in range(2))
        if not den or den.order:
            continue
        t = rng.uniform(-1, 1)
        want = abs(num.eval_complex(t) / den.eval_complex(t) - 1)
        sample = numeric_crosscheck(witness, [t], {(0, 0, 1): (num, den)})[0]
        assert sample.max_deviation == want


def test_numeric_crosscheck_keeps_a_large_term_after_a_run_of_zeros():
    # 1 + 2^2000 t^100 at t = 1e-4: Horner's rule multiplies by t a hundred
    # times between the two terms, past the float range without rescaling
    witness = DegenerationWitness("A_24", "A_24", identity_matrix())
    num = POLY_ONE + Poly.const(2 ** 2000) * POLY_T ** 100
    sample = numeric_crosscheck(witness, [1e-4], {(0, 0, 1): (num, POLY_ONE)})[0]
    want = float(2 ** 2000 * Fraction(1e-4) ** 100)
    assert sample.max_deviation == pytest.approx(want, rel=1e-12)
