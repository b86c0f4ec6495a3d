"""Exact linear algebra: echelon determinism, kernels, and the integer path."""

import random
from fractions import Fraction

import pytest

from nilcert import linalg
from nilcert.linalg import (RANK_PRIME, RANK_PRIMES, RANK_SQRT_M1,
                            SingularMatrixError, det, gaussian_int_adjugate,
                            gaussian_int_echelon, gaussian_int_kernel,
                            gaussian_int_rank, invert_matrix, laplace_adjugate,
                            rref)
from nilcert.scalars import GR_ONE, GR_ZERO, POLY_ONE, GaussianRational, Poly
from nilcert.sampling import derive_rng, random_invertible
from oracles import (count_calls, count_rank_fallbacks, kernel_basis,
                     laplace_det, rank)


def g(re, im=0):
    return GaussianRational(re, im)


def gm(rows):
    return [[g(x) if not isinstance(x, GaussianRational) else x for x in row]
            for row in rows]


def test_rref_known_form():
    rows, pivots = rref(gm([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert rows[0] == [g(1), g(0), g(-1)]
    assert rows[1] == [g(0), g(1), g(2)]


def test_rref_pivot_choice_is_first_nonzero():
    # both orderings give the same reduced form, but pivot order is row-stable
    rows, pivots = rref(gm([[0, 0, 1], [0, 1, 0]]))
    assert pivots == [1, 2]
    assert rows[0][1] == g(1)


def test_kernel_basis_matches_hand_computation():
    # x + y + z = 0 has kernel spanned by (-1, 1, 0), (-1, 0, 1)
    basis = kernel_basis(gm([[1, 1, 1]]), 3)
    assert basis == [[g(-1), g(1), g(0)], [g(-1), g(0), g(1)]]
    assert gaussian_int_kernel([[(1, 0)] * 3], 3) == \
        [[(-1, 0), (1, 0), (0, 0)], [(-1, 0), (0, 0), (1, 0)]]


def test_kernel_of_empty_system_is_everything():
    basis = kernel_basis([], 2)
    assert len(basis) == 2
    assert gaussian_int_kernel([], 2) == [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]


def test_invert_round_trip():
    m = gm([[1, 2], [3, 5]])
    inv = invert_matrix(m)
    assert inv == gm([[-5, 2], [3, -1]])
    with pytest.raises(SingularMatrixError):
        invert_matrix(gm([[1, 2], [2, 4]]))


def test_det_values():
    assert det(gm([[1, 2], [3, 4]])) == g(-2)
    assert det(gm([[1, 2], [2, 4]])) == GR_ZERO
    assert det([[g(0, 1)]]) == g(0, 1)


def value_at(poly, x):
    """The polynomial's exact value at the Gaussian rational x, by Horner."""
    out = GR_ZERO
    for c in reversed(poly.coeffs):
        out = out * x + c
    return out


def test_laplace_adjugate_over_polynomials():
    # M adj M = adj M M = det M I over Q(i)[t], and det M at t = x is the
    # determinant of M(x) by plain cofactor expansion
    rng = random.Random(17)
    for trial in range(60):
        n = 1 + trial % 5
        matrix = [[Poly([g(rng.randint(-3, 3), rng.randint(-1, 1))
                         for _ in range(rng.randint(0, 3))])
                   for _ in range(n)] for _ in range(n)]
        d, adj = laplace_adjugate(matrix)
        for left, right in ((matrix, adj), (adj, matrix)):
            for i in range(n):
                for j in range(n):
                    entry = Poly()
                    for k in range(n):
                        entry = entry + left[i][k] * right[k][j]
                    assert entry == (d if i == j else Poly()), (matrix, i, j)
        for x in (g(0), g(2, -1), g(Fraction(1, 3))):
            assert value_at(d, x) == laplace_det(
                [[value_at(p, x) for p in row] for row in matrix])
    assert laplace_adjugate([[Poly((0, 1))]]) == (Poly((0, 1)), [[POLY_ONE]])


def test_det_agrees_with_the_cofactor_oracle():
    rng = random.Random(19)
    for trial in range(100):
        n = 1 + trial % 6
        matrix = [[g(rng.randint(-4, 4), rng.randint(-2, 2)) if rng.random() < 0.7
                   else GR_ZERO for _ in range(n)] for _ in range(n)]
        assert det(matrix) == laplace_det(matrix)
    assert det([[GR_ZERO]]) == GR_ZERO and det([[GR_ONE]]) == GR_ONE


def test_gaussian_int_rank_agrees_with_rational_rank():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(1, 8)
        n = rng.randrange(1, 8)
        ints = [[(rng.randrange(-9, 10), rng.randrange(-4, 5))
                 for _ in range(n)] for _ in range(m)]
        grows = [[GaussianRational(a, b) for (a, b) in row] for row in ints]
        assert gaussian_int_rank(ints) == rank(grows)


def test_gaussian_int_rank_handles_rank_deficiency():
    rows = [[(1, 0), (2, 0)], [(2, 0), (4, 0)], [(0, 1), (0, 2)]]
    assert gaussian_int_rank(rows) == 1


def is_prime(n):
    """Miller-Rabin on the first twelve primes, deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_oracle():
    by_trial_division = [n for n in range(2, 200) if all(n % q for q in range(2, n))]
    assert [n for n in range(200) if is_prime(n)] == by_trial_division
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3215031751)


def test_rank_prime_and_its_root_of_minus_one():
    # a wrong constant would only send every rank to the slow fallback
    assert is_prime(RANK_PRIME)
    assert RANK_PRIME % 4 == 1
    assert pow(RANK_SQRT_M1, 2, RANK_PRIME) == RANK_PRIME - 1
    assert (RANK_PRIME, RANK_SQRT_M1) == RANK_PRIMES[0]
    # the further primes of the lift: distinct, and no wider than the first,
    # which sets the slot width of the packed rows
    assert len({prime for prime, _ in RANK_PRIMES}) == len(RANK_PRIMES) > 1
    for prime, root in RANK_PRIMES:
        assert is_prime(prime) and prime % 4 == 1
        assert prime.bit_length() <= RANK_PRIME.bit_length()
        assert pow(root, 2, prime) == prime - 1


def test_gaussian_int_rank_falls_back_when_the_prime_divides_the_minor(monkeypatch):
    fallbacks = count_rank_fallbacks(monkeypatch)
    # the 2 x 2 minor is RANK_PRIME, so the rank mod p is 1
    rows = [[(1, 0), (1, 0)], [(1, 0), (1 + RANK_PRIME, 0)]]
    assert gaussian_int_rank(rows) == 2
    assert len(fallbacks) == 1
    # Gaussian entries: the minor i (1 - p i) - i is again RANK_PRIME
    rows = [[(0, 1), (1, 0)], [(0, 1), (1, -RANK_PRIME)]]
    assert gaussian_int_rank(rows) == 2
    assert len(fallbacks) == 2


def test_gaussian_int_rank_of_zero_and_empty_matrices(monkeypatch):
    fallbacks = count_rank_fallbacks(monkeypatch)
    assert gaussian_int_rank([]) == 0
    assert gaussian_int_rank([[(0, 0)] * 3] * 2) == 0
    assert gaussian_int_rank([[(0, 0), (RANK_PRIME, 0)], [(0, 0), (0, 0)]]) == 1
    assert len(fallbacks) == 1


def test_full_column_rank_returns_before_any_lift(monkeypatch):
    lifts = count_calls(monkeypatch, linalg, "_lifted_vectors")
    rng = derive_rng(32, "linalg-full-rank")
    for _ in range(20):
        rows = [[(c.a, c.b) for c in row] for row in random_invertible(rng, 5)]
        assert gaussian_int_kernel(rows, 5) == []
        assert gaussian_int_kernel(rows + rows[:2], 5) == []
    assert lifts == []


def test_gaussian_int_kernel_lifts_past_one_prime_by_the_chinese_remainder_theorem(
        monkeypatch):
    bareiss = count_calls(monkeypatch, linalg, "_kernel_vectors")
    # each vector has an entry whose numerator or denominator is past the
    # lift bound of RANK_PRIME alone
    cases = ([[(2 ** 40 + 1, 0), (1, 0)]],
             [[(2 ** 30 + 1, 2 ** 29), (1, 0), (0, 0)], [(0, 0), (0, 0), (3, 0)]],
             [[(3, 0), (0, 0), (2 ** 45 + 7, 0)], [(0, 0), (5, 1), (2 ** 45, 1)]])
    for rows in cases:
        assert_kernel_matches_the_oracles(rows, len(rows[0]))
    assert bareiss == []


def test_gaussian_int_kernel_falls_back_when_no_lift_is_found(monkeypatch):
    bareiss = count_calls(monkeypatch, linalg, "_kernel_vectors")
    cases = (
        # -1 / (2^300 + 1) is past the lift bound of the product of RANK_PRIMES
        [[(2 ** 300 + 1, 0), (1, 0)]],
        # s + i is 0 under i -> -s, so the second image moves the pivot...
        [[(RANK_SQRT_M1, 1), (1, 0)]],
        # ... or loses it, and its rank drops
        [[(1, 0), (0, 0), (0, 0)], [(0, 0), (RANK_SQRT_M1, 1), (0, 0)]],
        # the lift of -1 / a needs a second prime, and a is 0 mod that prime
        [[(RANK_PRIMES[1][0] * (2 ** 40 + 1), 0), (1, 0)]],
    )
    for count, rows in enumerate(cases, 1):
        assert_kernel_matches_the_oracles(rows, len(rows[0]))
        assert len(bareiss) == count, rows


def test_gaussian_int_kernel_adds_the_rows_the_check_names(monkeypatch):
    lifts = count_calls(monkeypatch, linalg, "_lifted_vectors")
    bareiss = count_rank_fallbacks(monkeypatch)
    # six nonzero rows over three columns: the evenly spaced rows 0, 2 and 4
    # have rank 1, so their kernel vectors fail on row 5 alone, which the
    # second round adds and which raises the rank to 2
    for last in ([(0, 0), (1, 0), (1, 0)], [(0, 0), (2, 1), (0, -3)]):
        rows = [[(c, 0), (0, 0), (0, 0)] for c in (1, 1, 2, 1, 3)] + [last]
        first = gaussian_int_kernel(rows[::2], 3)
        assert linalg._failing_rows(first, linalg.IntRows(rows, 3)) == [5]
        before = len(lifts)
        assert_kernel_matches_the_oracles(rows, 3)
        assert len(lifts) == before + 2
    assert bareiss == []


def low_rank_product(rng, m, k, n, bound):
    """(m x k)(k x n) with Gaussian entries below ``bound`` in each part."""
    def draw(rows, cols):
        return [[(rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1))
                 for _ in range(cols)] for _ in range(rows)]
    left, right = draw(m, k), draw(k, n)
    return [[(sum(a * c - b * d for (a, b), (c, d) in zip(row, col)),
              sum(a * d + b * c for (a, b), (c, d) in zip(row, col)))
             for col in zip(*right)] for row in left]


def test_gaussian_int_rank_matches_exact_ranks_on_low_rank_products(monkeypatch):
    fallbacks = count_rank_fallbacks(monkeypatch)
    rng = random.Random(29)
    scaled = 0
    for trial in range(240):
        m, n = rng.randrange(2, 8), rng.randrange(2, 8)
        k = rng.randrange(1, min(m, n))
        rows = low_rank_product(rng, m, k, n, 2 ** 40 if trial % 2 else 3)
        if trial % 3 == 0:
            rows = [[(a * RANK_PRIME, b * RANK_PRIME) for a, b in row] for row in rows]
        elif trial % 3 == 1:
            s = rng.randrange(m)
            rows[s] = [(a * RANK_PRIME, b * RANK_PRIME) for a, b in rows[s]]
        want = len(gaussian_int_echelon(rows))
        assert want <= k
        grows = [[GaussianRational(a, b) for a, b in row] for row in rows]
        assert want == rank(grows)
        assert gaussian_int_rank(rows) == want, rows
        if trial % 3 == 0 and want:
            scaled += 1
    # every nonzero matrix scaled by RANK_PRIME is zero mod p and falls back
    assert len(fallbacks) >= scaled > 0


def assert_kernel_matches_the_oracles(rows, ncols):
    """gaussian_int_kernel has ncols - rank vectors, each the oracle's
    kernel_basis vector times d, its last nonzero entry."""
    vectors = gaussian_int_kernel(rows, ncols)
    grows = [[g(a, b) for a, b in row] for row in rows]
    assert len(vectors) == ncols - rank(grows), rows
    scaled = []
    for v in vectors:
        d = g(*next(x for x in reversed(v) if x != (0, 0)))
        scaled.append([g(a, b) / d for a, b in v])
    assert scaled == kernel_basis(grows, ncols), rows


def test_gaussian_int_kernel_matches_the_rref_oracle(monkeypatch):
    fallbacks = count_rank_fallbacks(monkeypatch)
    rng = random.Random(31)
    for ncols in range(4):
        assert_kernel_matches_the_oracles([], ncols)
        assert_kernel_matches_the_oracles([[(0, 0)] * ncols] * 3, ncols)
    scaled = 0
    for trial in range(300):
        # wide, square and tall matrices, of full rank or rank-deficient
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        if trial % 2:
            rows = low_rank_product(rng, m, rng.randrange(1, min(m, n) + 1), n,
                                    2 ** 30 if trial % 4 == 1 else 3)
        else:
            rows = [[(rng.randrange(-9, 10), rng.randrange(-4, 5))
                     if rng.random() < 0.6 else (0, 0) for _ in range(n)]
                    for _ in range(m)]
        if trial % 3 == 0:
            rows = [[(a * RANK_PRIME, b * RANK_PRIME) for a, b in row]
                    for row in rows]
            scaled += any(any(a or b for a, b in row) for row in rows)
        elif trial % 3 == 1:
            s = rng.randrange(m)
            rows[s] = [(a * RANK_PRIME, b * RANK_PRIME) for a, b in rows[s]]
        assert_kernel_matches_the_oracles(rows, n)
    # a nonzero matrix scaled by RANK_PRIME is zero mod p, so its kernel
    # comes from the fallback
    assert len(fallbacks) >= scaled > 0


def test_gaussian_int_adjugate_is_det_times_inverse():
    rng = random.Random(13)
    tried = 0
    while tried < 60:
        n = rng.randrange(1, 7)
        ints = [[(rng.randrange(-5, 6), rng.randrange(-3, 4)) for _ in range(n)]
                for _ in range(n)]
        grows = [[g(a, b) for a, b in row] for row in ints]
        want_det = det(grows)
        if not want_det:
            with pytest.raises(SingularMatrixError):
                gaussian_int_adjugate(ints)
            continue
        tried += 1
        (da, db), adj = gaussian_int_adjugate(ints)
        d = g(da, db)
        assert d in (want_det, -want_det)
        inverse = invert_matrix(grows)
        assert [[g(a, b) for a, b in row] for row in adj] == \
            [[d * x for x in row] for row in inverse]


def test_rational_entries_stay_exact():
    m = [[g(Fraction(1, 3)), g(Fraction(1, 6))],
         [g(Fraction(1, 7)), g(Fraction(1, 14))]]
    assert det(m) == GR_ZERO
    assert rank(m) == 1
