"""Structure-constant algebras on a fixed basis.

A StructureTable stores the nonzero constants c[i][j][k] of a bilinear
multiplication mu(e_i, e_j) = sum_k c[i][j][k] e_k with 0-based indices.
Tables are generic over the scalar field (Gaussian rationals for the embedded
catalog, tower elements for parametric families) via a small Field adapter.

Construction helpers accept the 1-based (i, j) -> {k: coefficient} layout of
printed multiplication tables so transcriptions stay literal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Field, SingularMatrixError, invert_matrix, kernel_basis,
                     rref, vec_matmul)
from .scalars import (GR_ONE, GR_ZERO, TOWER_ONE, TOWER_ZERO, GaussianRational,
                      TowerElement)

MAX_DIM = 16  # exact arithmetic guard rail

GAUSSIAN_FIELD = Field(GR_ZERO, GR_ONE, "Q(i)", GaussianRational.coerce)
TOWER_FIELD = Field(TOWER_ZERO, TOWER_ONE, "Q(i)(t)", TowerElement.coerce)


@dataclass(frozen=True)
class IdentityReport:
    commutative: bool
    associative: bool


class StructureTable:
    """Multiplication table of an algebra on a fixed basis; immutable by contract."""

    __slots__ = ("dim", "entries", "field")

    def __init__(self, dim, entries, field=GAUSSIAN_FIELD):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        coerce = field.coerce or (lambda c: c)
        clean = {}
        for (i, j, k), c in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"index ({i},{j},{k}) out of range for dim {dim}")
            c = coerce(c)
            if c != field.zero:
                clean[(i, j, k)] = c
        self.dim = dim
        self.entries = clean
        self.field = field

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_products(cls, dim, products, field=GAUSSIAN_FIELD, symmetrize=True):
        """Build from 1-based {(i, j): {k: coeff}} products as printed in tables.

        With symmetrize=True each listed product also defines the mirrored one
        (commutative presentation); explicit mirrored entries must agree.
        """
        entries = {}

        def put(i, j, k, c):
            key = (i - 1, j - 1, k - 1)
            if key in entries and entries[key] != c:
                raise ValueError(f"conflicting entries for c{key}")
            entries[key] = c

        for (i, j), rhs in products.items():
            for k, c in rhs.items():
                put(i, j, k, c)
                if symmetrize and i != j:
                    put(j, i, k, c)
        return cls(dim, entries, field)

    @classmethod
    def zero_algebra(cls, dim, field=GAUSSIAN_FIELD):
        return cls(dim, {}, field)

    # -- basic access -------------------------------------------------------------

    def entry(self, i, j, k):
        return self.entries.get((i, j, k), self.field.zero)

    def product_vec(self, i, j):
        """The vector e_i * e_j."""
        out = [self.field.zero] * self.dim
        for (a, b, k), c in self.entries.items():
            if a == i and b == j:
                out[k] = out[k] + c
        return out

    def basis_vector(self, i):
        return [self.field.one if k == i else self.field.zero for k in range(self.dim)]

    def multiply(self, x, y):
        """Bilinear extension of the table to coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        zero = self.field.zero
        out = [zero] * self.dim
        for (i, j, k), c in self.entries.items():
            xi = x[i]
            if xi:
                yj = y[j]
                if yj:
                    out[k] = out[k] + xi * yj * c
        return out

    # -- identity checks -------------------------------------------------------------

    def is_commutative(self) -> bool:
        for (i, j, k), c in self.entries.items():
            if self.entry(j, i, k) != c:
                return False
        return True

    def is_associative(self) -> bool:
        # brute force over all basis triples
        for i in range(self.dim):
            ei = self.basis_vector(i)
            for j in range(self.dim):
                ij = self.product_vec(i, j)
                for k in range(self.dim):
                    ek = self.basis_vector(k)
                    left = self.multiply(ij, ek)
                    right = self.multiply(ei, self.product_vec(j, k))
                    if left != right:
                        return False
        return True

    def check_identities(self) -> IdentityReport:
        return IdentityReport(self.is_commutative(), self.is_associative())

    # -- transformations ---------------------------------------------------------------

    def change_basis(self, matrix) -> "StructureTable":
        """Structure constants in the new basis f_i = sum_j matrix[i][j] e_j."""
        zero, one = self.field.zero, self.field.one
        try:
            inv = invert_matrix(matrix, zero, one)
        except SingularMatrixError:
            raise SingularMatrixError("basis-change matrix is singular") from None
        entries = {}
        for i in range(self.dim):
            for j in range(self.dim):
                prod = self.multiply(matrix[i], matrix[j])
                coords = vec_matmul(prod, inv, zero)
                for k, c in enumerate(coords):
                    if c != zero:
                        entries[(i, j, k)] = c
        return StructureTable(self.dim, entries, self.field)

    def map_entries(self, fn, field) -> "StructureTable":
        return StructureTable(self.dim,
                              {key: fn(c) for key, c in self.entries.items()},
                              field)

    def lift_to_tower(self) -> "StructureTable":
        return self.map_entries(TowerElement.coerce, TOWER_FIELD)

    # -- equality ------------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, StructureTable):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self):
        items = ", ".join(f"c({i + 1},{j + 1},{k + 1})={c!r}"
                          for (i, j, k), c in sorted(self.entries.items(),
                                                     key=lambda kv: kv[0]))
        return f"StructureTable(dim={self.dim}, {items or 'zero'})"


class Subspace:
    """A subspace given by a reduced-echelon basis matrix; rows are the basis."""

    __slots__ = ("ambient", "rows", "field")

    def __init__(self, ambient, rows, field=GAUSSIAN_FIELD):
        self.ambient = ambient
        self.field = field
        if rows:
            reduced, pivots = rref(rows, field.zero, field.one)
            self.rows = tuple(tuple(r) for r in reduced[:len(pivots)])
        else:
            self.rows = ()

    @classmethod
    def spanned_by(cls, vectors, ambient, field=GAUSSIAN_FIELD):
        return cls(ambient, [list(v) for v in vectors], field)

    @classmethod
    def zero(cls, ambient, field=GAUSSIAN_FIELD):
        return cls(ambient, [], field)

    @classmethod
    def full(cls, ambient, field=GAUSSIAN_FIELD):
        rows = [[field.one if c == r else field.zero for c in range(ambient)]
                for r in range(ambient)]
        return cls(ambient, rows, field)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, vector) -> bool:
        v = list(vector)
        for row in self.rows:
            pc = next(c for c, x in enumerate(row) if x)
            if v[pc]:
                f = v[pc]
                v = [a - f * b if b else a for a, b in zip(v, row)]
        return not any(v)

    def contains_subspace(self, other) -> bool:
        return all(self.contains(r) for r in other.rows)

    def add(self, other) -> "Subspace":
        return Subspace(self.ambient, [list(r) for r in self.rows + other.rows],
                        self.field)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


def flag_subspace(dim, start, field=GAUSSIAN_FIELD) -> Subspace:
    """The flag tail <e_start, ..., e_dim> for a 1-based start index.

    start = dim + 1 yields the zero subspace (the '= 0' case of containments).
    """
    if start < 1:
        raise ValueError("flag index must be >= 1")
    rows = [[field.one if c == r else field.zero for c in range(dim)]
            for r in range(start - 1, dim)]
    return Subspace(dim, rows, field)


def subspace_product(alg: StructureTable, left: Subspace, right: Subspace) -> Subspace:
    """Span of {u * w : u in basis(left), w in basis(right)}."""
    vectors = [alg.multiply(list(u), list(w)) for u in left.rows for w in right.rows]
    return Subspace.spanned_by(vectors, alg.dim, alg.field)


def power_chain(alg: StructureTable, up_to: int, base: Subspace | None = None):
    """[None, S^1, S^2, ...] up to S^up_to, where S is ``base`` (default: the
    whole algebra) and S^m = sum over p+q=m of S^p S^q.

    The sum covers every parenthesization, so the chain stays correct for
    non-associative diagnostic tables.  Once S^z = ... = S^(2z-2) = 0 the
    chain stops multiplying: every product of at least z factors contains a
    sub-product of z to 2z-2 factors, so every later power is zero as well.
    """
    if base is None:
        base = Subspace.full(alg.dim, alg.field)
    powers = [None, base]
    first_zero = 1 if base.is_zero else None
    for m in range(2, up_to + 1):
        if first_zero is not None and m >= 2 * first_zero - 1:
            powers.append(powers[-1])
            continue
        acc = Subspace.zero(alg.dim, alg.field)
        for p in range(1, m):
            acc = acc.add(subspace_product(alg, powers[p], powers[m - p]))
        powers.append(acc)
        if not acc.is_zero:
            first_zero = None
        elif first_zero is None:
            first_zero = m
    return powers


def annihilator(alg: StructureTable) -> Subspace:
    """{x : x * e_j = 0 = e_j * x for all j}, via an exact kernel."""
    zero, one = alg.field.zero, alg.field.one
    n = alg.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([alg.entry(i, j, k) for i in range(n)])   # x * e_j
            rows.append([alg.entry(j, i, k) for i in range(n)])   # e_j * x
    basis = kernel_basis(rows, n, zero, one)
    return Subspace.spanned_by(basis, n, alg.field)
