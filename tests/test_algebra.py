"""Structure tables: products, identities, subspaces, powers, annihilators,
and basis changes, with brute-force oracles for the derived values."""

import pytest

from nilcert import algebra, catalog
from nilcert.algebra import (BasisChange, IdentityReport, StructureTable,
                             Subspace, annihilator, flag_subspace, power_chain,
                             subspace_product)
from nilcert.linalg import SingularMatrixError
from nilcert.sampling import derive_rng, random_invertible, random_vector
from nilcert.scalars import GR_ONE, GR_ZERO, GaussianRational
from oracles import (associative_bruteforce, contains, contains_subspace,
                     random_sparse_table, zero_subspace)


def g(re, im=0):
    return GaussianRational(re, im)


def unit(k, dim=5):
    return [GR_ONE if i == k else GR_ZERO for i in range(dim)]


def brute_multiply(alg, x, y):
    """Oracle: the raw bilinear double sum, independent of the implementation."""
    out = [GR_ZERO] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                out[k] = out[k] + x[i] * y[j] * alg.entry(i, j, k)
    return out


# -- multiplication ----------------------------------------------------------------


def test_square_of_generator():
    table = catalog.get("A_24").table  # e_1^2 = e_2
    assert table.multiply(unit(0), unit(0)) == unit(1)


def test_zero_table_multiplies_to_zero():
    zero = StructureTable.zero_algebra(5)
    x = [g(1), g(2), g(-1), g(0, 1), g(3)]
    assert zero.multiply(x, x) == [GR_ZERO] * 5


def test_bilinear_expansion_matches_oracle():
    # (e_1 + e_2)^2 = 2 e_3 for the algebra with e_1 e_2 = e_3
    table = catalog.get("A_23").table
    x = [GR_ONE, GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO]
    expected = brute_multiply(table, x, x)
    assert expected == [GR_ZERO, GR_ZERO, g(2), GR_ZERO, GR_ZERO]
    assert table.multiply(x, x) == expected


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        catalog.get("A_24").table.multiply([GR_ONE], [GR_ONE])


def test_dimension_guard_rail():
    with pytest.raises(ValueError):
        StructureTable.zero_algebra(17)
    assert StructureTable.zero_algebra(16).dim == 16


def test_multiply_matches_oracle_on_random_vectors():
    rng = derive_rng(3, "multiply-oracle")
    for name in ("A_01", "A_07", "A_09", "A_13"):
        table = catalog.get(name).table
        for _ in range(10):
            x, y = random_vector(rng, 5), random_vector(rng, 5)
            assert table.multiply(x, y) == brute_multiply(table, x, y)


# -- identities ----------------------------------------------------------------------


def test_identities_hold_for_every_catalog_entry():
    for name in catalog.names():
        report = catalog.get(name).table.check_identities()
        assert report.commutative and report.associative, name


def test_asymmetric_table_is_not_commutative():
    table = StructureTable(5, {(0, 1, 2): GR_ONE})
    assert not table.check_identities().commutative


def test_nonassociative_table_detected():
    # e_1 e_1 = e_2, e_2 e_1 = e_1 breaks (e_1 e_1) e_1 = e_1 (e_1 e_1)?
    # (e1 e1) e1 = e2 e1 = e1, e1 (e1 e1) = e1 e2 = 0: not associative
    table = StructureTable(5, {(0, 0, 1): GR_ONE, (1, 0, 0): GR_ONE})
    assert not table.check_identities().associative


def test_identities_match_the_oracle_with_one_planted_failure():
    """Each catalog algebra in a random basis with one symmetric pair of
    constants moved: still commutative, associative or not."""
    rng = derive_rng(31, "planted-associativity")
    verdicts = set()
    for name in catalog.names():
        table = catalog.get(name).table.change_basis(random_invertible(rng, 5))
        i, j, k = (rng.randrange(5) for _ in range(3))
        entries = dict(table.entries)
        entries[(i, j, k)] = entries[(j, i, k)] = \
            table.entry(i, j, k) + g(1 + rng.randrange(3), rng.randrange(-1, 2))
        planted = StructureTable(5, entries)
        report = planted.check_identities()
        assert report.commutative
        assert report.associative == associative_bruteforce(planted), (name, i, j, k)
        verdicts.add(report.associative)
    assert verdicts == {True, False}


def test_noncommutative_table_is_checked_on_both_sides():
    # E_11, E_12 of the 2 x 2 matrices: associative, yet (e_1 e_1) e_2 = e_2
    # and (e_1 e_2) e_1 = 0, so (e_j e_k) e_i cannot stand for e_i (e_j e_k)
    units = StructureTable(2, {(0, 0, 0): GR_ONE, (0, 1, 1): GR_ONE})
    rng = derive_rng(32, "noncommutative-identities")
    for table in (units, units.change_basis(random_invertible(rng, 2))):
        assert associative_bruteforce(table)
        assert table.check_identities() == IdentityReport(False, True)


# -- subspace products and powers ---------------------------------------------------------


def test_flag_square_vanishes_for_a03():
    table = catalog.get("A_03").table
    a3 = flag_subspace(5, 3)
    assert subspace_product(table, a3, a3).is_zero


def test_product_with_zero_subspace():
    table = catalog.get("A_05").table
    zero = zero_subspace(5)
    assert subspace_product(table, zero, Subspace.full(5)).is_zero


def test_full_product_of_a12():
    table = catalog.get("A_12").table
    whole = Subspace.full(5)
    prod = subspace_product(table, whole, whole)
    assert prod.dim == 2
    assert contains(prod, unit(3)) and contains(prod, unit(4))


def test_power_ideals():
    assert power_chain(catalog.get("A_03").table, 4)[4].is_zero
    a05_fourth = power_chain(catalog.get("A_05").table, 4)[4]
    assert a05_fourth.dim == 1 and contains(a05_fourth, unit(3))
    assert power_chain(StructureTable.zero_algebra(5), 2)[2].is_zero


def test_power_chain_is_decreasing():
    for name in catalog.names():
        chain = power_chain(catalog.get(name).table, 6)
        for k in range(2, 7):
            assert contains_subspace(chain[k - 1], chain[k]), (name, k)


def test_power_chain_of_a_subspace_outlives_a_zero_power():
    # e_1^2 = e_2, e_2^2 = e_3 is not associative: for S = <e_1> the power
    # S^3 = e_1 e_2 vanishes while S^4 contains (e_1 e_1)(e_1 e_1) = e_3
    table = StructureTable(3, {(0, 0, 1): GR_ONE, (1, 1, 2): GR_ONE})
    chain = power_chain(table, 6, Subspace.spanned_by([unit(0, 3)], 3))
    assert [chain[k].dim for k in range(1, 7)] == [1, 1, 0, 1, 0, 0]
    assert contains(chain[4], unit(2, 3))


def test_power_chain_forms_each_product_of_a_commutative_table_once(monkeypatch):
    # S^m spans the products of S^p and S^q for p + q = m; on a commutative
    # table only p <= q, and for p = q only the pairs u_a u_b with a <= b
    sizes, jordan = [], algebra.gaussian_int_jordan

    def counted(rows):
        sizes.append(len(rows))
        return jordan(rows)

    monkeypatch.setattr(algebra, "gaussian_int_jordan", counted)

    def products(dims, m, commutative):
        if not commutative:
            return sum(dims[p] * dims[m - p] for p in range(1, m))
        half = dims[m // 2] * (dims[m // 2] + 1) // 2 if m % 2 == 0 else 0
        return sum(dims[p] * dims[m - p] for p in range(1, (m + 1) // 2)) + half

    # e_1 e_2 = e_3 alone is not commutative
    for table, commutative in ((catalog.get("A_01").table, True),
                               (catalog.get("A_13").table, True),
                               (StructureTable(3, {(0, 1, 2): GR_ONE}), False)):
        sizes.clear()
        chain = power_chain(table, 6)
        dims = [None] + [power.dim for power in chain[1:]]
        assert sizes == [products(dims, m, commutative)
                         for m in range(2, 2 + len(sizes))], table
        assert len(sizes) >= 3


def test_annihilator_dimensions():
    a21 = annihilator(catalog.get("A_21").table)
    assert a21.dim == 1 and contains(a21, unit(4))
    assert annihilator(StructureTable.zero_algebra(5)).dim == 5
    a05 = annihilator(catalog.get("A_05").table)
    assert a05.dim == 2 and contains(a05, unit(3)) and contains(a05, unit(4))


def test_annihilator_annihilates():
    for name in ("A_01", "A_09", "A_17"):
        table = catalog.get(name).table
        ann = annihilator(table)
        for row in ann.rows:
            for k in range(5):
                assert not any(table.multiply(list(row), unit(k)))
                assert not any(table.multiply(unit(k), list(row)))


def test_nilpotency_indices():
    assert catalog.fingerprint(catalog.get("A_24").table).nilpotency_index == 3
    assert catalog.fingerprint(StructureTable.zero_algebra(5)).nilpotency_index == 2
    assert catalog.fingerprint(catalog.get("A_01").table).nilpotency_index == 6


def test_non_nilpotent_detected():
    # e_1^2 = e_1 is idempotent: powers stabilize at <e_1>
    table = StructureTable(2, {(0, 0, 0): GR_ONE})
    assert [power.dim for power in power_chain(table, 3)[1:]] == [2, 1, 1]
    assert catalog.fingerprint(table).nilpotency_index == -1


# -- change of basis -----------------------------------------------------------------------------


def test_identity_change_is_identity():
    table = catalog.get("A_13").table
    eye = [unit(i) for i in range(5)]
    assert table.change_basis(eye) == table


def test_scaling_generator_scales_structure_constant():
    table = catalog.get("A_24").table
    m = [unit(i) for i in range(5)]
    m[0] = [g(2), GR_ZERO, GR_ZERO, GR_ZERO, GR_ZERO]
    scaled = table.change_basis(m)
    assert scaled.entry(0, 0, 1) == g(4)  # (2 e_1)^2 = 4 e_2


def test_change_basis_round_trip():
    rng = derive_rng(5, "round-trip")
    from nilcert.linalg import invert_matrix
    table = catalog.get("A_08").table
    m = random_invertible(rng, 5)
    inv = invert_matrix(m)
    assert table.change_basis(m).change_basis(inv) == table
    skew = random_sparse_table(derive_rng(5, "round-trip-skew"), 5,
                               symmetric=False)
    assert not skew.is_commutative()  # covers the full-product branch
    m = random_invertible(rng, 5)
    inv = invert_matrix(m)
    assert skew.change_basis(m).change_basis(inv) == skew


def test_singular_change_rejected():
    table = catalog.get("A_24").table
    m = [unit(0)] * 5
    with pytest.raises(SingularMatrixError):
        table.change_basis(m)


def test_basis_changes_of_one_table_share_its_integer_form():
    # lambda, the integer tensor and commutativity are computed once per table
    rng = derive_rng(24, "shared-integer-form")
    table = catalog.get("A_07").table
    first, second = (BasisChange(table, random_invertible(rng, 5)) for _ in range(2))
    assert first._tensor is second._tensor is table.integer_form()[1]
    assert table.integer_form() == (1, table.integer_tensor(), table.is_commutative())


def test_identities_and_invariants_stable_under_basis_change():
    # sampled battery over the whole catalog; the acceptance suite runs the
    # larger 50-per-algebra fingerprint version of the same invariance
    rng = derive_rng(7, "invariance-battery")
    for name in catalog.names():
        table = catalog.get(name).table
        want = (
            [power.dim for power in power_chain(table, 6)[2:]],
            annihilator(table).dim,
        )
        for _ in range(6):
            m = random_invertible(rng, 5)
            moved = table.change_basis(m)
            report = moved.check_identities()
            assert report.commutative and report.associative
            got = (
                [power.dim for power in power_chain(moved, 6)[2:]],
                annihilator(moved).dim,
            )
            assert got == want, name


def test_subspace_product_commutes_for_commutative_tables():
    rng = derive_rng(9, "subspace-commute")
    table = catalog.get("A_02").table
    for _ in range(5):
        u = Subspace.spanned_by([random_vector(rng, 5) for _ in range(2)], 5)
        w = Subspace.spanned_by([random_vector(rng, 5) for _ in range(2)], 5)
        assert subspace_product(table, u, w) == subspace_product(table, w, u)
