"""Derivation Lie algebras of structure-constant algebras, computed exactly.

A derivation is a linear map D with D(xy) = D(x)y + xD(y).  Writing
D(e_i) = sum_p D[i][p] e_p, the Leibniz rule on basis pairs is the linear
system

    sum_k c[i][j][k] D[k][m] = sum_p D[i][p] c[p][j][m] + sum_q D[j][q] c[i][q][m]

over the dim^2 unknowns D[p][q].  The system is linear in the constants, so
the scaled table of StructureTable.integer_tensor has the same derivations.
The dimension and the basis come from the certified kernel of the system
(``linalg.gaussian_int_kernel``), read from the integer tensor by
``LeibnizRows``: its rows are packed modulo a prime straight from the
tensor, and lifted kernel vectors are checked by the Leibniz rule itself,
which also gives the rows of the Gauss-Jordan fallback
(``linalg.dense_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import StructureTable
from .linalg import (IntRows, gaussian_int_kernel, gaussian_int_rank,
                     max_bits, pack_slots)
from .scalars import gaussian


@dataclass(frozen=True)
class DerivationSpace:
    dimension: int
    basis: tuple  # tuple of dim x dim matrices over Q(i)


class LeibnizRows(IntRows):
    """The Leibniz system of the scaled table as ``gaussian_int_kernel``
    reads it, from the integer tensor P with no list rows: row (i, j, m)
    is the coordinate m of

        D(e_i e_j) - D(e_i) e_j - e_i D(e_j)
          = sum_k P_ij^k D_km - sum_p D_ip P_pj^m - sum_p D_jp P_ip^m.

    On a commutative table (j, i, m) is the same row, so only i <= j is
    taken; ``keys`` lists the rows as (i, j, m).  The unknown D_pq is
    column p dim + q."""

    def __init__(self, alg: StructureTable):
        n = self.dim = alg.dim
        _, self.tensor, commutative = alg.integer_form()
        self.pairs = [(i, j) for i in range(n)
                      for j in range(i if commutative else 0, n)]
        self.keys = [(i, j, m) for i, j in self.pairs for m in range(n)]
        planes = [row for plane in self.tensor for row in plane]
        self.gaussian = any(b for row in planes for _, b in row)
        self.norm_bits = max_bits(planes) + (3 * n).bit_length()

    def modular(self, prime, root, width, keys):
        """Row (i, j, m) mod p is P_ij shifted to the columns (k, m), plus
        -P_.j^m at the columns (i, p) and -P_i.^m at (j, p), each of the
        three packed once per (i, j), (j, m) and (i, m)."""
        n, p = self.dim, prime
        t = [[[(a + b * root) % p for a, b in row] for row in plane]
             for plane in self.tensor]
        step = n * width
        spread = [[pack_slots(row, step) for row in plane] for plane in t]
        left = [[pack_slots([-t[q][j][m] % p for q in range(n)], width)
                 for m in range(n)] for j in range(n)]
        right = [[pack_slots([-t[i][q][m] % p for q in range(n)], width)
                  for m in range(n)] for i in range(n)]
        packed = []
        for i, j, m in keys:
            x = ((spread[i][j] << (m * width)) + (left[j][m] << (i * step))
                 + (right[i][m] << (j * step)))
            if x:
                packed.append(((i, j, m), x))
        return packed

    def products(self, xs, ys):
        """Row (i, j, m) on the vectors packed as in ``_failing_rows``: the
        Leibniz rule itself, read from the tensor."""
        n, tensor = self.dim, self.tensor
        for i, j in self.pairs:
            product = tensor[i][j]
            for m in range(n):
                s = 0
                for k, (a, b) in enumerate(product):
                    if a:
                        s += a * xs[k * n + m]
                    if b:
                        s += b * ys[k * n + m]
                for p in range(n):
                    a, b = tensor[p][j][m]
                    if a:
                        s -= a * xs[i * n + p]
                    if b:
                        s -= b * ys[i * n + p]
                    a, b = tensor[i][p][m]
                    if a:
                        s -= a * xs[j * n + p]
                    if b:
                        s -= b * ys[j * n + p]
                yield s


def derivation_dimension(alg: StructureTable) -> int:
    """dim Der = dim^2 - rank of the Leibniz system, by the certified
    Gaussian-integer rank."""
    n = alg.dim
    return n * n - gaussian_int_rank(LeibnizRows(alg), n * n)


def derivation_space(alg: StructureTable) -> DerivationSpace:
    """Kernel basis of the Leibniz system as dim x dim matrices: each
    certified kernel vector divided by d, its last nonzero entry, which
    gives the standard free-column basis of the reduced echelon form."""
    n, basis = alg.dim, []
    for v in gaussian_int_kernel(LeibnizRows(alg), n * n):
        da, db = next(x for x in reversed(v) if x != (0, 0))
        norm = da * da + db * db  # (a + b i) / d = (a + b i) conj(d) / |d|^2
        flat = [gaussian(a * da + b * db, b * da - a * db, norm) for a, b in v]
        basis.append(tuple(tuple(flat[p * n:(p + 1) * n]) for p in range(n)))
    return DerivationSpace(len(basis), tuple(basis))
