"""Derivation spaces: dimensions, Leibniz identity, Lie closure, invariance."""

from nilcert import catalog
from nilcert.algebra import StructureTable
from nilcert.derivations import derivation_dimension, derivation_space
from nilcert.linalg import rref
from nilcert.sampling import derive_rng, random_invertible
from nilcert.scalars import GR_ZERO
from oracles import is_derivation

# The full expected derivation-dimension column, A_01..A_24 in order.
EXPECTED_COLUMN = (5, 6, 6, 7, 7, 7, 7, 8, 8, 9, 9, 11,
                   8, 9, 9, 10, 10, 11, 11, 12, 11, 12, 14, 17)


def test_first_catalog_entry_dimension():
    assert derivation_dimension(catalog.get("A_01").table) == 5


def test_zero_algebra_has_all_linear_maps():
    assert derivation_dimension(StructureTable.zero_algebra(5)) == 25


def test_a12_dimension():
    assert derivation_dimension(catalog.get("A_12").table) == 11


def test_full_expected_column():
    names = [n for n in catalog.names() if n != "C5"]
    got = tuple(derivation_dimension(catalog.get(n).table) for n in names)
    assert got == EXPECTED_COLUMN


def test_basis_satisfies_leibniz_identity_exactly():
    for name in catalog.names():
        table = catalog.get(name).table
        space = derivation_space(table)
        assert space.dimension == derivation_dimension(table), name
        for matrix in space.basis:
            assert is_derivation(table, matrix), name


def test_basis_is_linearly_independent():
    for name in ("A_01", "A_13", "A_24"):
        space = derivation_space(catalog.get(name).table)
        flat = [[c for row in m for c in row] for m in space.basis]
        _, pivots = rref(flat)
        assert len(pivots) == space.dimension


def test_lie_bracket_stays_in_span():
    for name in catalog.names():
        table = catalog.get(name).table
        space = derivation_space(table)
        flat = [[c for row in m for c in row] for m in space.basis]
        reduced, pivots = rref(flat)
        span_rows = reduced[:len(pivots)]

        def in_span(vector):
            v = list(vector)
            for row in span_rows:
                pc = next(c for c, x in enumerate(row) if x)
                if v[pc]:
                    f = v[pc]
                    v = [a - f * b for a, b in zip(v, row)]
            return not any(v)

        def matmul(a, b):
            n = len(a)
            return [[sum((a[i][k] * b[k][j] for k in range(n)), GR_ZERO)
                     for j in range(n)] for i in range(n)]

        for d1 in space.basis:
            for d2 in space.basis:
                ab = matmul(d1, d2)
                ba = matmul(d2, d1)
                bracket = [[x - y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(ab, ba)]
                assert in_span([c for row in bracket for c in row]), name


def test_dimension_invariant_under_basis_change():
    rng = derive_rng(13, "der-invariance")
    for name in ("A_02", "A_11", "A_20"):
        table = catalog.get(name).table
        want = derivation_dimension(table)
        for _ in range(5):
            m = random_invertible(rng, 5)
            assert derivation_dimension(table.change_basis(m)) == want, name
