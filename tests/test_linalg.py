"""Exact linear algebra: echelon determinism, kernels, and the integer path."""

import random
from fractions import Fraction

import pytest

from nilcert.linalg import (SingularMatrixError, det, gaussian_int_adjugate,
                            gaussian_int_rank, invert_matrix, kernel_basis,
                            rank, rref)
from nilcert.scalars import GR_ONE, GR_ZERO, GaussianRational


def g(re, im=0):
    return GaussianRational(re, im)


def gm(rows):
    return [[g(x) if not isinstance(x, GaussianRational) else x for x in row]
            for row in rows]


def test_rref_known_form():
    rows, pivots = rref(gm([[0, 2, 4], [1, 1, 1]]), GR_ZERO, GR_ONE)
    assert pivots == [0, 1]
    assert rows[0] == [g(1), g(0), g(-1)]
    assert rows[1] == [g(0), g(1), g(2)]


def test_rref_pivot_choice_is_first_nonzero():
    # both orderings give the same reduced form, but pivot order is row-stable
    rows, pivots = rref(gm([[0, 0, 1], [0, 1, 0]]), GR_ZERO, GR_ONE)
    assert pivots == [1, 2]
    assert rows[0][1] == g(1)


def test_kernel_basis_matches_hand_computation():
    # x + y + z = 0 has kernel spanned by (-1, 1, 0), (-1, 0, 1)
    basis = kernel_basis(gm([[1, 1, 1]]), 3, GR_ZERO, GR_ONE)
    assert basis == [[g(-1), g(1), g(0)], [g(-1), g(0), g(1)]]


def test_kernel_of_empty_system_is_everything():
    basis = kernel_basis([], 2, GR_ZERO, GR_ONE)
    assert len(basis) == 2


def test_invert_round_trip():
    m = gm([[1, 2], [3, 5]])
    inv = invert_matrix(m, GR_ZERO, GR_ONE)
    assert inv == gm([[-5, 2], [3, -1]])
    with pytest.raises(SingularMatrixError):
        invert_matrix(gm([[1, 2], [2, 4]]), GR_ZERO, GR_ONE)


def test_det_values():
    assert det(gm([[1, 2], [3, 4]]), GR_ZERO, GR_ONE) == g(-2)
    assert det(gm([[1, 2], [2, 4]]), GR_ZERO, GR_ONE) == GR_ZERO
    assert det([[g(0, 1)]], GR_ZERO, GR_ONE) == g(0, 1)


def test_gaussian_int_rank_agrees_with_rational_rank():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(1, 8)
        n = rng.randrange(1, 8)
        ints = [[(rng.randrange(-9, 10), rng.randrange(-4, 5))
                 for _ in range(n)] for _ in range(m)]
        grows = [[GaussianRational(a, b) for (a, b) in row] for row in ints]
        assert gaussian_int_rank(ints) == rank(grows, GR_ZERO, GR_ONE)


def test_gaussian_int_rank_handles_rank_deficiency():
    rows = [[(1, 0), (2, 0)], [(2, 0), (4, 0)], [(0, 1), (0, 2)]]
    assert gaussian_int_rank(rows) == 1


def test_gaussian_int_adjugate_is_det_times_inverse():
    rng = random.Random(13)
    tried = 0
    while tried < 60:
        n = rng.randrange(1, 7)
        ints = [[(rng.randrange(-5, 6), rng.randrange(-3, 4)) for _ in range(n)]
                for _ in range(n)]
        grows = [[g(a, b) for a, b in row] for row in ints]
        want_det = det(grows, GR_ZERO, GR_ONE)
        if not want_det:
            with pytest.raises(SingularMatrixError):
                gaussian_int_adjugate(ints)
            continue
        tried += 1
        (da, db), adj = gaussian_int_adjugate(ints)
        d = g(da, db)
        assert d in (want_det, -want_det)
        inverse = invert_matrix(grows, GR_ZERO, GR_ONE)
        assert [[g(a, b) for a, b in row] for row in adj] == \
            [[d * x for x in row] for row in inverse]


def test_rational_entries_stay_exact():
    m = [[g(Fraction(1, 3)), g(Fraction(1, 6))],
         [g(Fraction(1, 7)), g(Fraction(1, 14))]]
    assert det(m, GR_ZERO, GR_ONE) == GR_ZERO
    assert rank(m, GR_ZERO, GR_ONE) == 1
