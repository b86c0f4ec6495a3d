"""Structure tables: products, identities, subspaces, powers, annihilators,
and basis changes, with brute-force oracles for the derived values."""

import pytest

from nilcert import catalog
from nilcert.algebra import (StructureTable, Subspace, annihilator,
                             flag_subspace, power_chain, subspace_product)
from nilcert.linalg import SingularMatrixError
from nilcert.sampling import derive_rng, random_invertible, random_vector
from nilcert.scalars import GR_ONE, GR_ZERO, GaussianRational


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


# -- subspace products and powers ---------------------------------------------------------


def test_flag_square_vanishes_for_a03():
    table = catalog.get("A_03").table
    a3 = flag_subspace(5, 3)
    assert subspace_product(table, a3, a3).is_zero


def test_product_with_zero_subspace():
    table = catalog.get("A_05").table
    zero = Subspace.zero(5)
    assert subspace_product(table, zero, Subspace.full(5)).is_zero


def test_full_product_of_a12():
    table = catalog.get("A_12").table
    whole = Subspace.full(5)
    prod = subspace_product(table, whole, whole)
    assert prod.dim == 2
    assert prod.contains(unit(3)) and prod.contains(unit(4))


def test_power_ideals():
    assert power_chain(catalog.get("A_03").table, 4)[4].is_zero
    a05_fourth = power_chain(catalog.get("A_05").table, 4)[4]
    assert a05_fourth.dim == 1 and a05_fourth.contains(unit(3))
    assert power_chain(StructureTable.zero_algebra(5), 2)[2].is_zero


def test_power_chain_is_decreasing():
    for name in catalog.names():
        chain = power_chain(catalog.get(name).table, 6)
        for k in range(2, 7):
            assert chain[k - 1].contains_subspace(chain[k]), (name, k)


def test_power_chain_of_a_subspace_outlives_a_zero_power():
    # e_1^2 = e_2, e_2^2 = e_3 is not associative: for S = <e_1> the power
    # S^3 = e_1 e_2 vanishes while S^4 contains (e_1 e_1)(e_1 e_1) = e_3
    table = StructureTable(3, {(0, 0, 1): GR_ONE, (1, 1, 2): GR_ONE})
    chain = power_chain(table, 6, Subspace.spanned_by([unit(0, 3)], 3))
    assert [chain[k].dim for k in range(1, 7)] == [1, 1, 0, 1, 0, 0]
    assert chain[4].contains(unit(2, 3))


def test_annihilator_dimensions():
    a21 = annihilator(catalog.get("A_21").table)
    assert a21.dim == 1 and a21.contains(unit(4))
    assert annihilator(StructureTable.zero_algebra(5)).dim == 5
    a05 = annihilator(catalog.get("A_05").table)
    assert a05.dim == 2 and a05.contains(unit(3)) and a05.contains(unit(4))


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
    table = catalog.get("A_08").table
    m = random_invertible(rng, 5)
    from nilcert.linalg import invert_matrix
    inv = invert_matrix(m, GR_ZERO, GR_ONE)
    assert table.change_basis(m).change_basis(inv) == table


def test_singular_change_rejected():
    table = catalog.get("A_24").table
    m = [unit(0)] * 5
    with pytest.raises(SingularMatrixError):
        table.change_basis(m)


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
