"""Structure-constant algebras on a fixed basis.

A StructureTable stores the nonzero constants c[i][j][k] of a bilinear
multiplication mu(e_i, e_j) = sum_k c[i][j][k] e_k with 0-based indices, all
of them Gaussian rationals (Q(i)).  Constants in t arise only while a
parametric witness basis is checked, and live in the degeneration module.

The identities, powers and annihilator of a table are computed in Gaussian
integers on its scaled table (``integer_tensor``, with the scaling lemma),
and so is a change of basis (``BasisChange``), read one product at a time.
Subspaces are spanned over Q(i) and kept in reduced echelon form.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import lcm

from .linalg import (SingularMatrixError, gaussian_int_adjugate,
                     gaussian_int_jordan, gaussian_int_kernel, max_bits,
                     pack_pairs, rref)
from .scalars import GR_ONE, GR_ZERO, GaussianRational, gaussian

MAX_DIM = 16  # exact arithmetic guard rail


@dataclass(frozen=True)
class IdentityReport:
    commutative: bool
    associative: bool


class StructureTable:
    """Multiplication table of an algebra on a fixed basis; immutable by contract."""

    __slots__ = ("dim", "entries", "_integer_form")

    def __init__(self, dim, entries):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        clean = {}
        for (i, j, k), c in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"index ({i},{j},{k}) out of range for dim {dim}")
            c = GaussianRational.coerce(c)
            if c:
                clean[(i, j, k)] = c
        self.dim = dim
        self.entries = clean
        self._integer_form = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def zero_algebra(cls, dim):
        return cls(dim, {})

    # -- basic access -------------------------------------------------------------

    def entry(self, i, j, k):
        return self.entries.get((i, j, k), GR_ZERO)

    def product_vec(self, i, j):
        """The vector e_i * e_j."""
        out = [GR_ZERO] * self.dim
        for (a, b, k), c in self.entries.items():
            if a == i and b == j:
                out[k] = out[k] + c
        return out

    def multiply(self, x, y):
        """Bilinear extension of the table to coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        out = [GR_ZERO] * self.dim
        for (i, j, k), c in self.entries.items():
            xi = x[i]
            if xi:
                yj = y[j]
                if yj:
                    out[k] = out[k] + xi * yj * c
        return out

    # -- identity checks -------------------------------------------------------------

    def is_commutative(self) -> bool:
        return all(self.entry(j, i, k) == c
                   for (i, j, k), c in self.entries.items())

    def check_identities(self) -> IdentityReport:
        """(e_i e_j) e_k = e_i (e_j e_k) on every triple, read from the
        integer tensor P on packed outer products, one (i, j) at a time.

        With entries (k, l) in slots of ``width`` bits at (k n + l) width,
        the left sides for every (k, l) are sum_m P_ij^m Q_m, Q_m packing
        P_mk^l over (k, l).  The right sides are sum_m Z_jm W_im: Z_jm packs
        P_jk^m over k at k n width and W_im packs P_im^l over l at l width,
        so their product packs P_jk^m P_im^l over (k, l).  A real part
        with its imaginary part is two such sums; each slot is below
        2^(width - 1) in absolute value, so the ints agree only when every
        slot does."""
        (_, p, commutative), n = self.integer_form(), self.dim
        width = 2 * max_bits([row for plane in p for row in plane]) + n.bit_length() + 2
        q = [pack_pairs([pair for row in plane for pair in row], width)
             for plane in p]
        z = [[pack_pairs([p[j][k][m] for k in range(n)], n * width)
              for m in range(n)] for j in range(n)]
        w = [[pack_pairs(p[i][m], width) for m in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                left_re = left_im = right_re = right_im = 0
                for m, (a, b) in enumerate(p[i][j]):
                    if a or b:
                        qa, qb = q[m]
                        left_re += a * qa - b * qb
                        left_im += a * qb + b * qa
                    (za, zb), (wa, wb) = z[j][m], w[i][m]
                    right_re += za * wa - zb * wb
                    right_im += za * wb + zb * wa
                if left_re != right_re or left_im != right_im:
                    return IdentityReport(commutative, False)
        return IdentityReport(commutative, True)

    def integer_tensor(self):
        """Dense products of the scaled table lambda mu, lambda the lcm of
        the denominators of all constants: P[i][j][k] = lambda c[i][j][k] as
        a Gaussian-integer (re, im) pair.

        Scaling lemma: for lambda != 0, x -> x / lambda maps (A, mu) onto
        (A, lambda mu) isomorphically, as lambda mu(x/lambda, y/lambda) =
        mu(x, y) / lambda.  So commutativity, associativity, nilpotency, the
        power and annihilator dimensions and dim Der are those of lambda mu.
        """
        n = self.dim
        tensor = [[[(0, 0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), pair in zip(self.entries,
                                   _scaled_ints(self.entries.values())[1]):
            tensor[i][j][k] = pair
        return tensor

    def integer_form(self):
        """(lambda, integer_tensor(), is_commutative()), kept on first use."""
        if self._integer_form is None:
            self._integer_form = (_denominator_lcm(self.entries.values()),
                                  self.integer_tensor(), self.is_commutative())
        return self._integer_form

    # -- transformations ---------------------------------------------------------------

    def change_basis(self, matrix) -> "StructureTable":
        """Structure constants in the new basis f_i = sum_j matrix[i][j] e_j:
        every constant of ``BasisChange(self, matrix)``."""
        return BasisChange(self, matrix).table()

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


class BasisChange:
    """A table in the new basis f_i = sum_j matrix[i][j] e_j, in Gaussian
    integers.  Row i of the matrix times s_i, the lcm of its denominators,
    is a Gaussian-integer row G_i; with P = lambda mu the integer tensor and
    (d, d G^-1) from ``gaussian_int_adjugate``, c'(i, j, k) is

        s_k N(i, j)_k / (lambda s_i s_j d),  N(i, j) = P(G_i, G_j) d G^-1,

    zero exactly when N(i, j)_k is.  Each N(i, j) is formed when first read
    and kept; on a commutative table (j, i) reads (i, j)."""

    def __init__(self, table: StructureTable, matrix):
        self.dim = table.dim
        self._scales, self._rows = zip(*(_scaled_ints(row) for row in matrix))
        try:
            self._d, self._adj = gaussian_int_adjugate(self._rows)
        except SingularMatrixError:
            raise SingularMatrixError("basis-change matrix is singular") from None
        self._lam, self._tensor, self._commutative = table.integer_form()
        self._coords = {}

    def coords(self, i, j):
        """N(i, j) as Gaussian-integer (re, im) pairs."""
        if self._commutative and j < i:
            i, j = j, i
        coords = self._coords.get((i, j))
        if coords is None:
            coords = self._coords[i, j] = _combine(
                _int_multiply(self._tensor, self._rows[i], self._rows[j]),
                self._adj)
        return coords

    def entry(self, i, j, k):
        """The constant c'(i, j, k)."""
        a, b = self.coords(i, j)[k]
        if not (a or b):
            return GR_ZERO
        # c' = s_k N_k / D with D = lambda s_i s_j d, as N_k conj(D) / |D|^2
        f = self._lam * self._scales[i] * self._scales[j]
        da, db = f * self._d[0], f * self._d[1]
        s_k = self._scales[k]
        return gaussian(s_k * (a * da + b * db), s_k * (b * da - a * db),
                        da * da + db * db)

    def table(self) -> StructureTable:
        """Every constant, as a StructureTable."""
        n, commutative = self.dim, self._commutative
        entries = {}
        for i in range(n):
            for j in range(i if commutative else 0, n):
                for k in range(n):
                    if c := self.entry(i, j, k):
                        entries[(i, j, k)] = c
                        if commutative:
                            entries[(j, i, k)] = c
        return StructureTable(n, entries)


class Subspace:
    """A subspace given by a reduced-echelon basis matrix; rows are the basis."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient, rows):
        self.ambient = ambient
        reduced, pivots = rref(rows)
        self.rows = tuple(tuple(r) for r in reduced[:len(pivots)])

    @classmethod
    def spanned_by(cls, vectors, ambient):
        return cls(ambient, [list(v) for v in vectors])

    @classmethod
    def full(cls, ambient):
        return flag_subspace(ambient, 1)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient})"


def flag_subspace(dim, start) -> Subspace:
    """The flag tail <e_start, ..., e_dim> for a 1-based start index.

    start = dim + 1 yields the zero subspace (the '= 0' case of containments).
    """
    if start < 1:
        raise ValueError("flag index must be >= 1")
    rows = [[GR_ONE if c == r else GR_ZERO for c in range(dim)]
            for r in range(start - 1, dim)]
    return Subspace(dim, rows)


def subspace_product(alg: StructureTable, left: Subspace, right: Subspace) -> Subspace:
    """Span of {u * w : u in basis(left), w in basis(right)}."""
    vectors = [alg.multiply(list(u), list(w)) for u in left.rows for w in right.rows]
    return Subspace.spanned_by(vectors, alg.dim)


def _combine(coeffs, vectors):
    """sum_m coeffs[m] vectors[m] over Gaussian-integer pairs."""
    re, im = [0] * len(coeffs), [0] * len(coeffs)
    for (a, b), vector in zip(coeffs, vectors):
        if a or b:
            for k, (c, d) in enumerate(vector):
                if c or d:
                    re[k] += a * c - b * d
                    im[k] += a * d + b * c
    return list(zip(re, im))


def _int_multiply(tensor, x, y):
    """x * y for Gaussian-integer vectors, by the integer tensor."""
    return _combine(x, [_combine(y, row) if a or b else None
                        for (a, b), row in zip(x, tensor)])


def _denominator_lcm(values):
    return lcm(*(c.d for c in values))


def _scaled_ints(values):
    """(s, s * values) for Q(i) values and s the lcm of their denominators,
    the products as Gaussian-integer (re, im) pairs."""
    values = list(values)
    scale = _denominator_lcm(values)
    return scale, [(c.a * (scale // c.d), c.b * (scale // c.d)) for c in values]


def _rationals(int_rows):
    return [[GaussianRational(a, b) for a, b in row] for row in int_rows]


class PowerChain(Sequence):
    """[None, S^1, ..., S^up_to] that keeps only the powers it computed;
    every index past them reads the last one, which is then zero."""

    def __init__(self, powers, up_to):
        self._powers, self._length = powers, max(up_to, 1) + 1

    def __len__(self):
        return self._length

    def __getitem__(self, k):
        index = range(self._length)[k]  # raises IndexError past up_to
        if isinstance(index, range):
            return [self[m] for m in index]
        return self._powers[min(index, len(self._powers) - 1)]


def power_chain(alg: StructureTable, up_to: int, base: Subspace | None = None):
    """[None, S^1, S^2, ...] up to S^up_to, where S is ``base`` (default: the
    whole algebra) and S^m = sum over p+q=m of S^p S^q.

    The sum covers every parenthesization, so the chain stays correct for
    non-associative diagnostic tables.  Once S^z = ... = S^(2z-2) = 0 the
    chain stops: every product of at least z factors contains a sub-product
    of z to 2z-2 factors, so every later power is zero as well.  Products
    are taken on the integer tensor and spanned by the rows of their
    fraction-free reduced echelon form (``gaussian_int_jordan``):
    each spanning vector u of a power gets its left-multiplication matrix
    (the products u e_j) once, so u w costs one combination.  On a
    commutative table S^p S^q = S^q S^p, so only p <= q is formed, and for
    p = q only the pairs u_a u_b with a <= b.
    """
    n = alg.dim
    _, tensor, commutative = alg.integer_form()
    columns = [[plane[j] for plane in tensor] for j in range(n)]
    if base is None:
        base = Subspace.full(n)
    spans = [None, [_scaled_ints(row)[1] for row in base.rows]]
    lefts = {}  # p -> the left-multiplication matrices of spans[p]
    powers = [None, base]
    first_zero = 1 if base.is_zero else None
    for m in range(2, up_to + 1):
        if first_zero is not None and m >= 2 * first_zero - 1:
            break
        products = []
        for p in range(1, m // 2 + 1 if commutative else m):
            if p not in lefts:
                lefts[p] = [[_combine(u, column) for column in columns]
                            for u in spans[p]]
            for a, left in enumerate(lefts[p]):
                right = spans[m - p]
                if commutative and 2 * p == m:
                    right = right[a:]
                products.extend(_combine(w, left) for w in right)
        _, _, reduced = gaussian_int_jordan(products)
        powers.append(Subspace(n, _rationals(reduced)))
        spans.append([_scaled_ints(row)[1] for row in powers[-1].rows])
        if spans[-1]:
            first_zero = None
        elif first_zero is None:
            first_zero = m
    return PowerChain(powers, up_to)


def annihilator(alg: StructureTable) -> Subspace:
    """{x : x * e_j = 0 = e_j * x for all j}: the certified kernel
    (``gaussian_int_kernel``) of the rows of the integer tensor, dim^2 for
    x * e_j and, unless the table is commutative, dim^2 more for e_j * x."""
    n, (_, p, commutative) = alg.dim, alg.integer_form()
    rows = [[p[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    if not commutative:
        rows += [[p[j][i][k] for i in range(n)] for j in range(n) for k in range(n)]
    return Subspace(n, _rationals(gaussian_int_kernel(rows, n)))
