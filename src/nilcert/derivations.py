"""Derivation Lie algebras of structure-constant algebras, computed exactly.

A derivation is a linear map D with D(xy) = D(x)y + xD(y).  Writing
D(e_i) = sum_p D[i][p] e_p, the Leibniz rule on basis pairs is the linear
system

    sum_k c[i][j][k] D[k][m] = sum_p D[i][p] c[p][j][m] + sum_q D[j][q] c[i][q][m]

over the dim^2 unknowns D[p][q].  The system is linear in the constants, so
the scaled table of StructureTable.integer_tensor has the same derivations:
the rows are built in Gaussian integers, and the dimension and the basis
come from their certified kernel (pivots modulo a prime, kernel vectors
checked exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import StructureTable
from .linalg import gaussian_int_kernel, gaussian_int_rank
from .scalars import gaussian


@dataclass(frozen=True)
class DerivationSpace:
    dimension: int
    basis: tuple  # tuple of dim x dim matrices over Q(i)


def _leibniz_rows(alg: StructureTable):
    """Rows of the Leibniz system of the scaled table as (re, im) int pairs;
    unknown (p, q) is column p * dim + q.

    Duplicate equations (for commutative tables, the (i, j) and (j, i) pairs)
    are dropped, which halves the elimination work without changing the kernel.
    """
    n = alg.dim
    tensor = alg.integer_tensor()
    rows = {}
    for i in range(n):
        for j in range(n):
            for m in range(n):
                re, im = [0] * (n * n), [0] * (n * n)
                for k, (a, b) in enumerate(tensor[i][j]):
                    re[k * n + m] += a
                    im[k * n + m] += b
                for p in range(n):
                    a, b = tensor[p][j][m]
                    re[i * n + p] -= a
                    im[i * n + p] -= b
                    a, b = tensor[i][p][m]
                    re[j * n + p] -= a
                    im[j * n + p] -= b
                if any(re) or any(im):
                    rows.setdefault(tuple(zip(re, im)), None)
    return list(rows)


def derivation_dimension(alg: StructureTable) -> int:
    """dim Der = dim^2 - rank of the Leibniz system, by the certified
    Gaussian-integer rank."""
    return alg.dim * alg.dim - gaussian_int_rank(_leibniz_rows(alg))


def derivation_space(alg: StructureTable) -> DerivationSpace:
    """Kernel basis of the Leibniz system as dim x dim matrices: each
    certified kernel vector divided by d, its last nonzero entry, which
    gives the standard free-column basis of the reduced echelon form."""
    n, basis = alg.dim, []
    for v in gaussian_int_kernel(_leibniz_rows(alg), n * n):
        da, db = next(x for x in reversed(v) if x != (0, 0))
        norm = da * da + db * db  # (a + b i) / d = (a + b i) conj(d) / |d|^2
        flat = [gaussian(a * da + b * db, b * da - a * db, norm) for a, b in v]
        basis.append(tuple(tuple(flat[p * n:(p + 1) * n]) for p in range(n)))
    return DerivationSpace(len(basis), tuple(basis))
