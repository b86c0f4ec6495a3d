"""Seeded random generators for matrices over small Gaussian rationals.

Entries are drawn uniformly from {-2,-1,0,1,2} + i*{-1,0,1} (the documented
distribution for all randomized probes), with rejection on singularity,
decided by the rank of the Gaussian-integer rows.
Sub-generators are derived from the run seed and a label through sha256 so
parallel and sequential runs see identical streams.
"""

from __future__ import annotations

import hashlib
import random

from .linalg import gaussian_int_rank
from .scalars import GR_ZERO, GaussianRational

RE_POOL = (-2, -1, 0, 1, 2)
IM_POOL = (-1, 0, 1)


def derive_rng(seed: int, label: str) -> random.Random:
    """A reproducible generator tied to (seed, label), stable across processes."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(rng.choice(RE_POOL), rng.choice(IM_POOL))


def random_vector(rng: random.Random, dim: int):
    return [random_gaussian(rng) for _ in range(dim)]


def random_invertible(rng: random.Random, dim: int):
    """Random matrix over the small Gaussian pool, rejected until det != 0,
    that is until its rows, all Gaussian integers, have rank dim."""
    while True:
        m = [random_vector(rng, dim) for _ in range(dim)]
        if gaussian_int_rank([[(c.a, c.b) for c in row]
                              for row in m]) == dim:
            return m


def random_borel_matrix(rng: random.Random, dim: int):
    """Random basis change preserving the flag tails <e_i, ..., e_n>.

    Row i is supported on columns >= i with a nonzero diagonal; as an operator
    on column vectors this is an invertible lower-triangular matrix.
    """
    m = []
    for i in range(dim):
        row = [GR_ZERO] * dim
        diag = GR_ZERO
        while not diag:
            diag = random_gaussian(rng)
        row[i] = diag
        for j in range(i + 1, dim):
            row[j] = random_gaussian(rng)
        m.append(row)
    return m

