"""Derivation Lie algebras of structure-constant algebras, computed exactly.

A derivation is a linear map D with D(xy) = D(x)y + xD(y).  Writing
D(e_i) = sum_p D[i][p] e_p, the Leibniz rule on basis pairs is the linear
system

    sum_k c[i][j][k] D[k][m] = sum_p D[i][p] c[p][j][m] + sum_q D[j][q] c[i][q][m]

over the dim^2 unknowns D[p][q].  The kernel is computed by exact elimination
only; the dimension uses a fraction-free Gaussian-integer fast path and the
basis a rational reduced echelon form, and the two routes are cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import StructureTable
from .linalg import gaussian_int_rank, kernel_basis, rank
from .scalars import GaussianRational


@dataclass(frozen=True)
class DerivationSpace:
    dimension: int
    basis: tuple  # tuple of dim x dim matrices over the scalar field


def _leibniz_rows(alg: StructureTable):
    """Rows of the Leibniz system; unknown (p, q) is column p * dim + q.

    Duplicate equations (for commutative tables, the (i, j) and (j, i) pairs)
    are dropped, which halves the elimination work without changing the kernel.
    """
    n = alg.dim
    zero = alg.field.zero
    rows = []
    seen = set()
    for i in range(n):
        for j in range(n):
            cij = alg.product_vec(i, j)
            for m in range(n):
                row = [zero] * (n * n)
                for k in range(n):
                    c = cij[k]
                    if c:
                        row[k * n + m] = row[k * n + m] + c
                for p in range(n):
                    c = alg.entry(p, j, m)
                    if c:
                        row[i * n + p] = row[i * n + p] - c
                for q in range(n):
                    c = alg.entry(i, q, m)
                    if c:
                        row[j * n + q] = row[j * n + q] - c
                if any(row):
                    key = tuple(row)
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
    return rows


def _gaussian_int_rows(rows):
    """Clear denominators rowwise into (re, im) integer pairs."""
    out = []
    for row in rows:
        lcm = 1
        for c in row:
            for part in (c.re, c.im):
                d = part.denominator
                if d != 1:
                    g = gcd(lcm, d)
                    lcm = lcm // g * d
        out.append([(int(c.re * lcm), int(c.im * lcm)) for c in row])
    return out


def derivation_dimension(alg: StructureTable) -> int:
    """dim Der, via the fraction-free integer elimination when possible."""
    rows = _leibniz_rows(alg)
    if not rows:
        return alg.dim * alg.dim
    if isinstance(next(iter(alg.entries.values()), None), GaussianRational):
        return alg.dim * alg.dim - gaussian_int_rank(_gaussian_int_rows(rows))
    zero, one = alg.field.zero, alg.field.one
    return alg.dim * alg.dim - rank(rows, zero, one)


def derivation_space(alg: StructureTable) -> DerivationSpace:
    """Kernel basis of the Leibniz system as dim x dim matrices."""
    n = alg.dim
    zero, one = alg.field.zero, alg.field.one
    rows = _leibniz_rows(alg)
    flat = kernel_basis(rows, n * n, zero, one)
    basis = tuple(tuple(tuple(v[p * n + q] for q in range(n)) for p in range(n))
                  for v in flat)
    return DerivationSpace(len(basis), basis)


def orbit_dimension(alg: StructureTable) -> int:
    """dim GL - dim of the stabilizer's tangent space: dim^2 - dim Der."""
    return alg.dim * alg.dim - derivation_dimension(alg)


def is_derivation(alg: StructureTable, matrix) -> bool:
    """Exact Leibniz check of D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on all pairs."""
    n = alg.dim
    zero = alg.field.zero
    for i in range(n):
        di = list(matrix[i])
        ei = alg.basis_vector(i)
        for j in range(n):
            cij = alg.product_vec(i, j)
            left = [zero] * n
            for k in range(n):
                c = cij[k]
                if c != zero:
                    left = [acc + c * m for acc, m in zip(left, matrix[k])]
            right = alg.multiply(di, alg.basis_vector(j))
            right = [a + b for a, b in zip(right, alg.multiply(ei, list(matrix[j])))]
            if left != right:
                return False
    return True
