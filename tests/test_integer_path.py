"""The Gaussian-integer paths against Fraction oracles.

Identities, powers, annihilators, derivations and the change of basis are
computed on the scaled integer tensor of a table.  The oracles here are the
direct Q(i) computations: the per-triple associativity check, powers as sums
of subspace products, the rank and kernel of the Leibniz system and the
annihilator by the ``rref`` oracles, and the change of basis by
``linalg.invert_matrix``.
"""

import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from nilcert import algebra, catalog, linalg
from nilcert.algebra import (StructureTable, Subspace, annihilator,
                             flag_subspace, power_chain, subspace_product)
from nilcert.derivations import (LeibnizRows, derivation_dimension,
                                 derivation_space)
from nilcert.linalg import (RANK_PRIME, SingularMatrixError, det,
                            gaussian_int_jordan, invert_matrix, rref)
from nilcert.sampling import (derive_rng, random_borel_matrix,
                              random_invertible, random_vector)
from nilcert.scalars import GR_ONE, GR_ZERO, GaussianRational
from oracles import (associative_bruteforce, count_calls,
                     count_rank_fallbacks, is_derivation, kernel_basis,
                     random_sparse_table, rank)


def subspace_powers(table, up_to, base):
    """Oracle: S^m as the span of every S^p S^q with p + q = m, no early stop."""
    powers = [None, base]
    for m in range(2, up_to + 1):
        rows = [row for p in range(1, m)
                for row in subspace_product(table, powers[p], powers[m - p]).rows]
        powers.append(Subspace.spanned_by(rows, table.dim))
    return powers


def fraction_leibniz_rows(table):
    """Oracle: the Leibniz system over Q(i), one row per (i, j, m)."""
    n = table.dim
    rows = []
    for i, j, m in product(range(n), repeat=3):
        row = [GR_ZERO] * (n * n)
        for k in range(n):
            row[k * n + m] = row[k * n + m] + table.entry(i, j, k)
        for p in range(n):
            row[i * n + p] = row[i * n + p] - table.entry(p, j, m)
            row[j * n + p] = row[j * n + p] - table.entry(i, p, m)
        rows.append(row)
    return rows


def fraction_leibniz_rank(table):
    """Oracle: rank of the Leibniz system over Q(i), by ``oracles.rank``."""
    return rank(fraction_leibniz_rows(table))


def fraction_derivation_basis(table):
    """Oracle: the ``kernel_basis`` of the distinct nonzero rows of the
    Leibniz system, as dim x dim matrices."""
    n = table.dim
    rows = list(dict.fromkeys(tuple(row) for row in fraction_leibniz_rows(table)
                              if any(row)))
    return tuple(tuple(tuple(v[p * n:(p + 1) * n]) for p in range(n))
                 for v in kernel_basis(rows, n * n))


def fraction_annihilator(table):
    n = table.dim
    rows = [[table.entry(i, j, k) for i in range(n)] for j in range(n) for k in range(n)]
    rows += [[table.entry(j, i, k) for i in range(n)] for j in range(n) for k in range(n)]
    return Subspace.spanned_by(kernel_basis(rows, n), n)


def with_fractions(table, rng):
    """Every constant times its own random Q(i) factor with denominators."""
    def factor():
        return GaussianRational(Fraction(rng.randrange(1, 9), rng.randrange(1, 9)),
                                Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)))
    return StructureTable(table.dim, {key: c * factor()
                                      for key, c in table.entries.items()})


def sample_tables():
    """Seeded tables covering every case the integer path distinguishes."""
    rng = derive_rng(17, "integer-path")
    frac_rng = random.Random(17)
    tables = []
    for index in range(48):
        dim = 2 + index % 4
        table = random_sparse_table(rng, dim, max_entries=1 + index % 10,
                                    symmetric=index % 2 == 0)
        tables.append(with_fractions(table, frac_rng) if index % 3 == 0 else table)
    # associative and nilpotent, with Gaussian-rational constants
    for name in ("A_01", "A_07", "A_13", "A_21", "C5"):
        moved = catalog.get(name).table.change_basis(random_invertible(rng, 5))
        tables.append(moved)
    # associative but not nilpotent: e_1^2 = e_1 beside e_2^2 = e_3
    idempotent = StructureTable(3, {(0, 0, 0): GR_ONE, (1, 1, 2): GR_ONE})
    tables.append(idempotent.change_basis(random_invertible(rng, 3)))
    return tables


def nilpotent(table):
    return subspace_powers(table, table.dim + 1, Subspace.full(table.dim))[-1].is_zero


def test_samples_cover_every_case():
    tables = sample_tables()
    cases = {(t.is_commutative(), associative_bruteforce(t), nilpotent(t)) for t in tables}
    for position in range(3):
        assert {case[position] for case in cases} == {True, False}
    assert any(c.re.denominator > 1 or c.im.denominator > 1
               for t in tables for c in t.entries.values())
    assert any(c.im for t in tables for c in t.entries.values())


def test_identities_match_the_per_triple_oracle():
    for table in sample_tables():
        report = table.check_identities()
        assert report.associative == associative_bruteforce(table), table
        assert report.commutative == table.is_commutative()


def test_powers_match_sums_of_subspace_products():
    rng = derive_rng(18, "integer-path-bases")
    for table in sample_tables():
        n = table.dim
        bases = (Subspace.full(n), flag_subspace(n, 1 + rng.randrange(n)),
                 Subspace.spanned_by([[GaussianRational(rng.randrange(-2, 3),
                                                        rng.randrange(-1, 2))
                                       for _ in range(n)]], n))
        for base in bases:
            want = subspace_powers(table, 6, base)
            got = power_chain(table, 6, base)
            assert [got[k] for k in range(1, 7)] == want[1:], table


def test_annihilator_and_dim_der_match_the_fraction_oracles():
    for table in sample_tables():
        n = table.dim
        assert annihilator(table) == fraction_annihilator(table), table
        assert derivation_dimension(table) == n * n - fraction_leibniz_rank(table)
        space = derivation_space(table)
        assert space.dimension == derivation_dimension(table)
        assert all(is_derivation(table, d) for d in space.basis)


def test_dim_der_of_tables_scaled_by_the_rank_prime_takes_the_fallback(monkeypatch):
    # every Leibniz row is 0 mod RANK_PRIME, so only the exact fallback
    # can find the rank; scaling keeps dim Der
    fallbacks = count_rank_fallbacks(monkeypatch)
    rng = derive_rng(20, "integer-path-rank-prime")
    for name in ("A_01", "A_05", "A_12", "A_24"):
        table = catalog.get(name).table
        for moved in (table, table.change_basis(random_invertible(rng, 5))):
            scaled = StructureTable(5, {key: c * RANK_PRIME
                                        for key, c in moved.entries.items()})
            before = len(fallbacks)
            assert derivation_dimension(scaled) == \
                25 - fraction_leibniz_rank(scaled) == catalog.DER_DIMS[name]
            assert len(fallbacks) == before + 1


def catalog_and_conjugates():
    """(name, table) for the catalog tables and 50 seeded conjugates."""
    cases = [(name, catalog.get(name).table) for name in catalog.names()]
    rng = derive_rng(21, "integer-path-conjugates")
    names = [name for name in catalog.names() if name != "C5"]
    for index in range(50):
        name = names[index % len(names)]
        cases.append((name, catalog.get(name).table.change_basis(
            random_invertible(rng, 5))))
    return cases


def test_rank_fallback_never_runs_on_the_catalog_and_its_conjugates(monkeypatch):
    fallbacks = count_rank_fallbacks(monkeypatch)
    # count_rank_fallbacks counts the Bareiss calls too; both must stay empty
    bareiss = count_calls(monkeypatch, linalg, "_kernel_vectors")
    for name, table in catalog_and_conjugates():
        assert derivation_dimension(table) == catalog.DER_DIMS[name]
        ann = annihilator(table)
        assert ann == fraction_annihilator(table), name
        assert ann.dim == catalog.catalog_fingerprint(name).ann_dim
    assert fallbacks == []
    assert bareiss == []


def test_non_commutative_derivations_are_the_oracle_kernel_with_or_without_fallback(
        monkeypatch):
    # the Leibniz rows of a non-commutative table read every pair (i, j);
    # scaled by RANK_PRIME they are 0 mod p, so the lifted vectors fail the
    # check and the kernel comes from Bareiss on the list rows
    fallbacks = count_rank_fallbacks(monkeypatch)
    rng = derive_rng(32, "integer-path-non-commutative")
    tested = 0
    while tested < 6:
        dim = 3 + tested % 2
        table = random_sparse_table(rng, dim, max_entries=8, symmetric=False)
        if table.is_commutative():
            continue
        tested += 1
        moved = table.change_basis(random_invertible(rng, dim))
        scaled = StructureTable(dim, {key: c * RANK_PRIME
                                      for key, c in moved.entries.items()})
        for t, fallback in ((table, 0), (moved, 0), (scaled, 1)):
            want = fraction_derivation_basis(t)
            before = len(fallbacks)
            assert derivation_dimension(t) == len(want) == \
                dim * dim - fraction_leibniz_rank(t)
            assert derivation_space(t).basis == want
            assert len(fallbacks) == before + 2 * fallback


def test_the_leibniz_check_names_the_rows_that_fail_by_their_keys(monkeypatch):
    # LeibnizRows row (i, j, m) is the fraction_leibniz_rows row (i, j, m)
    # scaled by lambda, and so is row (i, j, m) of its dense_rows: the check
    # names it when it is nonzero on a vector.
    # The certified kernel vectors fail on no row; a unit vector at column c
    # fails exactly on the rows nonzero at c.
    rng = derive_rng(34, "integer-path-failing-rows")
    cases = catalog_and_conjugates()[::5]
    while len(cases) < 25:
        table = random_sparse_table(rng, 3 + len(cases) % 2, max_entries=8,
                                    symmetric=len(cases) % 3 > 0)
        cases.append((None, table.change_basis(random_invertible(rng, table.dim))))
    for _, table in cases:
        n = table.dim
        source = LeibnizRows(table)
        rows = fraction_leibniz_rows(table)
        kernel = linalg.gaussian_int_kernel(source, n * n)
        assert not kernel or linalg._failing_rows(kernel, source) == []
        # the fallback reads the same rows back off the check
        scale = GaussianRational(table.integer_form()[0])
        assert [[GaussianRational(a, b) for a, b in row]
                for row in linalg.dense_rows(source, n * n)] == \
            [[scale * x for x in rows[(i * n + j) * n + m]]
             for i, j, m in source.keys]
        column = rng.randrange(n * n)
        unit = [(0, 0)] * (n * n)
        unit[column] = (1, rng.choice((0, 1)))
        want = [(i, j, m) for i, j, m in source.keys
                if rows[(i * n + j) * n + m][column]]
        assert linalg._failing_rows(kernel + [unit], source) == want, table
    # some catalog tables in their own basis have more nonzero rows than the
    # first round takes, and their kernels take a second round
    lifts = count_calls(monkeypatch, linalg, "_lifted_vectors")
    for name in catalog.names():
        assert derivation_dimension(catalog.get(name).table) == catalog.DER_DIMS[name]
    assert len(lifts) > len(catalog.names())


def test_derivation_space_is_the_oracle_kernel_on_the_catalog_and_its_conjugates():
    for name, table in catalog_and_conjugates():
        space = derivation_space(table)
        assert space.basis == fraction_derivation_basis(table), name
        assert space.dimension == catalog.DER_DIMS[name]


def count_rref_calls(monkeypatch):
    """A list that grows at each call of ``linalg.rref``, by either name."""
    calls = count_calls(monkeypatch, linalg, "rref")
    monkeypatch.setattr(algebra, "rref", linalg.rref)
    return calls


def test_derivation_space_makes_no_rref_call(monkeypatch):
    calls = count_rref_calls(monkeypatch)
    for name in ("A_01", "A_12", "A_24", "C5"):
        derivation_space(catalog.get(name).table)
    assert calls == []


def test_annihilator_makes_one_rref_call(monkeypatch):
    calls = count_rref_calls(monkeypatch)
    for count, name in enumerate(("A_01", "A_12", "A_24", "C5"), 1):
        annihilator(catalog.get(name).table)
        assert len(calls) == count, name


def test_scaling_by_a_gaussian_rational_keeps_identities_and_fingerprint():
    lam = GaussianRational(Fraction(3, 7), 2)
    rng = derive_rng(19, "integer-path-scaling")
    for name in catalog.names():
        moved = catalog.get(name).table.change_basis(random_invertible(rng, 5))
        scaled = StructureTable(5, {key: c * lam for key, c in moved.entries.items()})
        assert scaled.check_identities() == moved.check_identities()
        assert catalog.fingerprint(scaled) == catalog.catalog_fingerprint(name), name
        assert name in catalog.identify(scaled)


def test_jordan_rows_are_d_times_the_reduced_echelon_form():
    rng = random.Random(23)
    cases = []
    for trial in range(100):
        n, gaussian = rng.randrange(1, 7), trial % 2
        rows = [[(rng.randrange(-6, 7), rng.randrange(-3, 4) * gaussian)
                 for _ in range(n)] for _ in range(rng.randrange(1, 7))]
        rows.append([(a + c, b + d) for (a, b), (c, d) in zip(rows[0], rows[-1])])
        cases.append(rows)
    # column 1 is free and left of the pivots 2 and 3, so the first pivot
    # row is updated there after it was chosen
    cases.append([[(2, 0), (4, 0), (1, 0), (3, 0)],
                  [(1, 0), (2, 0), (5, 0), (1, 0)],
                  [(3, 0), (6, 0), (0, 1), (2, 0)]])
    for rows in cases:
        n = len(rows[0])
        as_q = [[GaussianRational(a, b) for a, b in row] for row in rows]
        (da, db), pivots, reduced = gaussian_int_jordan(rows)
        want, want_pivots = rref(as_q)
        assert pivots == want_pivots, rows
        d = GaussianRational(da, db)
        assert d != GR_ZERO
        got = [[GaussianRational(a, b) for a, b in row] for row in reduced]
        assert got == [[d * x for x in row] for row in want[:len(pivots)]], rows
        assert Subspace.spanned_by(got, n) == Subspace.spanned_by(as_q, n)
        assert len(got) == rank(as_q)


def test_power_chain_keeps_no_padding_past_a_zero_power():
    table = catalog.get("A_05").table
    tracemalloc.start()
    try:
        chain = power_chain(table, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a list of 10^6 entries alone takes 8 MB
    assert len(chain) == 10 ** 6 + 1
    assert chain[10 ** 6].is_zero and chain[-1].is_zero and not chain[4].is_zero
    assert [power.dim for power in chain[1:8]] == [5, 3, 2, 1, 0, 0, 0]
    with pytest.raises(IndexError):
        chain[10 ** 6 + 1]


def fraction_change_basis(table, matrix):
    """Oracle: the products of the new basis vectors times the inverse of the
    matrix, by Fraction Gauss-Jordan, in the insertion order of
    ``change_basis``."""
    inv = invert_matrix(matrix)
    commutative = table.is_commutative()
    entries = {}
    for i in range(table.dim):
        for j in range(i if commutative else 0, table.dim):
            product = table.multiply(matrix[i], matrix[j])
            coords = [sum((p * row[k] for p, row in zip(product, inv)), GR_ZERO)
                      for k in range(table.dim)]
            for k, c in enumerate(coords):
                if c:
                    entries[(i, j, k)] = c
                    if commutative:
                        entries[(j, i, k)] = c
    return StructureTable(table.dim, entries)


def change_basis_cases():
    """Catalog tables in random dense and Borel bases, bases with rows
    divided by 3 + i, tables scaled by 3/7 + 2i, non-commutative tables,
    the empty table C5 and the permutation basis of the A_05 row finding."""
    rng = derive_rng(31, "change-basis-oracle")
    lam, divisor = GaussianRational(Fraction(3, 7), 2), GaussianRational(3, 1)
    cases = []
    for name in catalog.names():
        table = catalog.get(name).table
        cases += [(table, random_invertible(rng, 5)) for _ in range(3)]
        cases += [(table, random_borel_matrix(rng, 5)) for _ in range(2)]
        divided = [[c / divisor for c in row] if r % 2 else row
                   for r, row in enumerate(random_invertible(rng, 5))]
        scaled = StructureTable(5, {key: c * lam for key, c in table.entries.items()})
        cases += [(table, divided), (scaled, random_invertible(rng, 5))]
    for index in range(20):
        dim = 2 + index % 4
        table = random_sparse_table(rng, dim, symmetric=False)
        cases.append((table, random_invertible(rng, dim)))
    order = (0, 3, 2, 1, 4)
    permutation = [[GaussianRational(1 if j == order[i] else 0) for j in range(5)]
                   for i in range(5)]
    cases.append((catalog.get("A_15").table, permutation))
    return cases


def test_change_basis_matches_the_fraction_oracle():
    cases = change_basis_cases()
    assert any(not table.is_commutative() for table, _ in cases)
    assert any(not table.entries for table, _ in cases)  # C5
    for table, matrix in cases:
        got, want = table.change_basis(matrix), fraction_change_basis(table, matrix)
        assert got == want, (table, matrix)
        assert list(got.entries) == list(want.entries)  # same insertion order


def test_singular_gaussian_basis_is_rejected():
    rng = derive_rng(32, "singular-basis")
    for table in (catalog.get("A_02").table, catalog.get("C5").table,
                  random_sparse_table(rng, 4, symmetric=False)):
        n = table.dim
        matrix = random_invertible(rng, n)
        # a multiple of the first row by 1/2 + i: det = 0
        matrix[n - 1] = [c * GaussianRational(Fraction(1, 2), 1) for c in matrix[0]]
        with pytest.raises(SingularMatrixError, match="basis-change matrix is singular"):
            table.change_basis(matrix)


def test_random_invertible_draws_what_the_det_oracle_draws():
    for seed in (1, 7, 101, 102):
        rng, oracle_rng = derive_rng(seed, "escape"), derive_rng(seed, "escape")
        for dim in (1, 2, 3, 5, 5, 5):
            while True:
                want = [random_vector(oracle_rng, dim) for _ in range(dim)]
                if det(want) != GR_ZERO:
                    break
            assert random_invertible(rng, dim) == want
        assert rng.getstate() == oracle_rng.getstate()
