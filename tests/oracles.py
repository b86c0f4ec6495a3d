"""Test oracles, independent of the code they check: the certificate
conditions from the defining c(i,j,k) equations, every parenthesization of
tail products and exhaustive minors; associativity on basis triples and the
Leibniz rule on basis pairs; subspace membership by reduction against
echelon rows; random sparse tables; the rank and the kernel over Q(i) by
``rref``; counters of calls and of the exact fallback of the certified
kernel; and polynomials over Q(i) as tuples of normalized Gaussian
rationals, with the witness change of basis on them."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, inf, lcm, prod

from nilcert import linalg
from nilcert.algebra import StructureTable, Subspace
from nilcert.certificates import (AnnDimAtLeast, FlagContainment,
                                  PolynomialEq, PowerVanish)
from nilcert.sampling import random_gaussian
from nilcert.scalars import GR_ONE, GR_ZERO, GaussianRational


def basis_vector(alg, i):
    return [GR_ONE if k == i else GR_ZERO for k in range(alg.dim)]


def zero_subspace(ambient):
    return Subspace(ambient, [])


def contains(space, vector) -> bool:
    v = list(vector)
    for row in space.rows:
        pc = next(c for c, x in enumerate(row) if x)
        if v[pc]:
            f = v[pc]
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return not any(v)


def contains_subspace(space, other) -> bool:
    return all(contains(space, r) for r in other.rows)


def associative_bruteforce(table) -> bool:
    """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, both sides
    multiplied out over Q(i)."""
    for i, j, k in product(range(table.dim), repeat=3):
        left = table.multiply(table.product_vec(i, j), basis_vector(table, k))
        right = table.multiply(basis_vector(table, i), table.product_vec(j, k))
        if left != right:
            return False
    return True


def is_derivation(alg: StructureTable, matrix) -> bool:
    """Exact Leibniz check of D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on all pairs."""
    n = alg.dim
    for i in range(n):
        di = list(matrix[i])
        ei = basis_vector(alg, i)
        for j in range(n):
            cij = alg.product_vec(i, j)
            left = [GR_ZERO] * n
            for k in range(n):
                c = cij[k]
                if c:
                    left = [acc + c * m for acc, m in zip(left, matrix[k])]
            right = alg.multiply(di, basis_vector(alg, j))
            right = [a + b for a, b in zip(right, alg.multiply(ei, list(matrix[j])))]
            if left != right:
                return False
    return True


def random_sparse_table(rng: random.Random, dim: int, max_entries: int = 8,
                        symmetric: bool = True) -> StructureTable:
    """A random sparse structure table (not necessarily associative)."""
    entries = {}
    for _ in range(rng.randrange(1, max_entries + 1)):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        c = random_gaussian(rng)
        if not c:
            continue
        entries[(i, j, k)] = c
        if symmetric:
            entries[(j, i, k)] = c
    return StructureTable(dim, entries)


def conjunct_holds_bruteforce(conj, alg):
    """Independent oracle: the defining c(i,j,k) equations, checked directly."""
    n = alg.dim
    if isinstance(conj, FlagContainment):
        k_top = (conj.r - 1) if conj.r is not None else n
        for i in range(conj.p - 1, n):
            for j in range(conj.q - 1, n):
                for k in range(min(k_top, n)):
                    if alg.entry(i, j, k):
                        return False
        return True
    if isinstance(conj, PowerVanish):
        return not some_tail_product_nonzero(alg, conj.p, conj.k)
    if isinstance(conj, PolynomialEq):
        return conj.value(alg).is_zero
    if isinstance(conj, AnnDimAtLeast):
        return annihilator_rank_by_minors(alg) <= n - conj.d
    raise TypeError(f"unknown conjunct {conj!r}")


def some_tail_product_nonzero(alg, p, k):
    """Enumerate every parenthesization of k-fold tail products."""
    n = alg.dim
    tails = [basis_vector(alg, i) for i in range(p - 1, n)]
    layers = {1: tails}
    for m in range(2, k + 1):
        vectors = []
        for a in range(1, m):
            for u in layers[a]:
                for w in layers[m - a]:
                    vectors.append(alg.multiply(u, w))
        layers[m] = vectors
    return any(any(v) for v in layers[k])


def annihilator_rank_by_minors(alg):
    """Rank of the two-sided multiplication matrix via exhaustive minors."""
    n = alg.dim
    columns = []
    for j in range(n):
        for k in range(n):
            left = tuple(alg.entry(i, j, k) for i in range(n))
            right = tuple(alg.entry(j, i, k) for i in range(n))
            for col in (left, right):
                if any(col) and col not in columns:
                    columns.append(col)
    if not columns:
        return 0
    rank = 0
    for m in range(1, min(n, len(columns)) + 1):
        found = False
        for row_idx in combinations(range(n), m):
            for col_idx in combinations(range(len(columns)), m):
                minor = [[columns[c][r] for c in col_idx] for r in row_idx]
                if laplace_det(minor):
                    found = True
                    break
            if found:
                break
        if found:
            rank = m
        else:
            break
    return rank


def rank(rows) -> int:
    """Rank over Q(i), by the pivots of ``linalg.rref``."""
    return len(linalg.rref(rows)[1])


def kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} for the matrix with the given rows over Q(i):
    the standard free-column parametrization of ``linalg.rref``, in
    ascending free-column order."""
    reduced, pivots = linalg.rref(rows)
    basis = []
    for free_col in sorted(set(range(ncols)) - set(pivots)):
        v = [GR_ZERO] * ncols
        v[free_col] = GR_ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -reduced[ri][free_col]
        basis.append(v)
    return basis


def laplace_det(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    total = GR_ZERO
    for col, head in enumerate(matrix[0]):
        if not head:
            continue
        sub = [[row[c] for c in range(len(row)) if c != col] for row in matrix[1:]]
        term = head * laplace_det(sub)
        total = total + term if col % 2 == 0 else total - term
    return total


def count_calls(monkeypatch, module, name):
    """A list that grows by the arguments of each call of module.name."""
    calls, function = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_rank_fallbacks(monkeypatch):
    """A list that grows by the arguments of each call of
    ``linalg._kernel_vectors``, the Bareiss fallback of
    ``linalg.gaussian_int_kernel``, for list rows and the Leibniz rows of
    ``derivations.LeibnizRows`` alike.  A failed check first adds the rows
    it names, so a failed check alone is no fallback."""
    return count_calls(monkeypatch, linalg, "_kernel_vectors")


class RationalPoly:
    """A polynomial in t over Q(i) as a tuple of reduced Gaussian rationals,
    lowest power first, no trailing zero: the reference for
    ``scalars.Poly``, each coefficient operation normalized on its own.  It
    equals any polynomial with the same ``coeffs``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def order(self):
        return next((k for k, c in enumerate(self.coeffs) if c), inf)

    @property
    def lead(self):
        return self.coeffs[-1] if self.coeffs else GR_ZERO

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return RationalPoly(out)

    def __neg__(self):
        return RationalPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            other = RationalPoly((other,))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPoly()
        out = [GR_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return RationalPoly(out)

    def __pow__(self, k):
        out = RationalPoly((GR_ONE,))
        for _ in range(k):
            out = out * self
        return out

    def divmod(self, other):
        rem, ob = list(self.coeffs), other.coeffs
        dq = len(rem) - len(ob)
        if dq < 0:
            return RationalPoly(), self
        quo = [GR_ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(ob) - 1] / ob[-1]
            quo[k] = c
            for j, oc in enumerate(ob):
                rem[k + j] = rem[k + j] - c * oc
        return RationalPoly(quo), RationalPoly(rem)

    def monic(self):
        return self * self.lead.inverse() if self else self

    def primitive_part(self):
        """The coefficients times L/G: L the lcm of their denominators, G
        the gcd of the scaled numerators."""
        if not self:
            return self
        den = lcm(*(c.d for c in self.coeffs))
        g = gcd(*(x * (den // c.d) for c in self.coeffs for x in (c.a, c.b)))
        return RationalPoly(c * GaussianRational(Fraction(den, g))
                            for c in self.coeffs)

    def __eq__(self, other):
        return self.coeffs == getattr(other, "coeffs", None)

    def __hash__(self):
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.lead)

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                power = "" if k == 0 else "t" if k == 1 else f"t^{k}"
                parts.append(repr(c) if not power else
                             power if c == GR_ONE else f"{c!r}*{power}")
        return " + ".join(parts) or "0"


def rational_poly_gcd(a, b):
    """The monic gcd by remainders with the content stripped at each step."""
    a, b = a.primitive_part(), b.primitive_part()
    while b:
        a, b = b, a.divmod(b)[1].primitive_part()
    return a.monic()


def rational_transformed_constants(source, matrix):
    """The {(i, j, k): (N_ijk D_k, D_i D_j det G)} pairs of
    ``degeneration.transformed_constants``, computed over Q(i)[t] on
    ``RationalPoly``: D_i is the product of the distinct denominators of row
    i of the ParametricMatrix, G_i = D_i E_i, (det G, adj G) from
    ``linalg.laplace_adjugate`` on those polynomials, and N_ijk coordinate k
    of G_i G_j (on the source's constants) times adj G."""
    rows = [[(RationalPoly(c.num.coeffs), RationalPoly(c.den.coeffs)) for c in row]
            for row in matrix.rows]
    scales = [prod({den for _, den in row}, start=RationalPoly((GR_ONE,)))
              for row in rows]
    rows = [[num * scale.divmod(den)[0] for num, den in row]
            for scale, row in zip(scales, rows)]
    det_g, adj = linalg.laplace_adjugate(rows)
    commutative = source.is_commutative()
    zero = RationalPoly()
    constants = {}
    for i, x in enumerate(rows):
        for j in range(i if commutative else 0, len(rows)):
            y = rows[j]
            product_ = [zero] * len(rows)
            for (a, b, k), c in source.entries.items():
                if x[a] and y[b]:
                    product_[k] = product_[k] + x[a] * y[b] * c
            den = scales[i] * scales[j] * det_g
            for k, s_k in enumerate(scales):
                num = sum((p * adj_row[k] for p, adj_row in zip(product_, adj)
                           if p and adj_row[k]), zero)
                if num:
                    constants[(i, j, k)] = (num * s_k, den)
                    if commutative:
                        constants[(j, i, k)] = (num * s_k, den)
    return constants
