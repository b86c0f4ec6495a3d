"""Exact linear algebra over field-like scalars.

All routines are deterministic: pivots are chosen as the first nonzero entry
scanning columns left to right and rows top to bottom, so echelon forms are
reproducible for golden tests.  One fraction-free Bareiss update over
Gaussian integers, with its exact division by the previous pivot, serves two
routines: the elimination gaussian_int_echelon gives the spans of the
identify path (powers); its Gauss-Jordan form gaussian_int_adjugate gives
det and adjugate for the change of basis of a Q(i) table.
gaussian_int_kernel (the annihilator, the derivations and their dimension,
the invertibility test of random bases) proves a kernel from both sides:
pivots found modulo a prime bound the rank below, and kernel vectors found
by Bareiss on those pivot rows alone and checked exactly against every row
bound it above; gaussian_int_rank counts them.  rref and invert_matrix work
over Q(i).  laplace_adjugate, with no division, gives det and adjugate over
any commutative ring; the change of basis of a parametric witness runs it on
polynomials in Z[i][t] (``scalars.Poly`` over 1).
"""

from __future__ import annotations

from itertools import chain

from .scalars import GR_ONE, GR_ZERO


class SingularMatrixError(ValueError):
    """Matrix inversion or basis change attempted with a singular matrix."""


def rref(rows):
    """Reduced row echelon form with unit pivots, over Q(i).

    Returns (rows, pivot_columns); zero rows are kept at the bottom.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pr = None
        for k in range(r, nrows):
            if rows[k][col]:
                pr = k
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        if pv != GR_ONE:
            rows[r] = [x / pv for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rk, rr = rows[k], rows[r]
                rows[k] = [a - f * b if b else a for a, b in zip(rk, rr)]
        pivots.append(col)
        r += 1
    return rows, pivots


def invert_matrix(matrix):
    """Inverse via Gauss-Jordan on an identity augment."""
    n = len(matrix)
    aug = [list(row) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


def det(matrix):
    """Determinant of a square matrix, by ``laplace_adjugate``."""
    return laplace_adjugate(matrix)[0]


def laplace_adjugate(matrix):
    """(det M, adj M), with M adj M = det M I, for a square matrix M over a
    commutative ring, with no division: each minor is expanded along its first
    row and memoized by its row and column sets (bit masks), so the cofactors
    share their smaller minors, at most C(2n, n) = 252 of them for n = 5.  The
    ring's one is an entry to the power 0."""
    n = len(matrix)
    one = matrix[0][0] ** 0
    zero = one - one
    memo = {(0, 0): one}

    def minor(rows, cols):
        value = memo.get((rows, cols))
        if value is None:
            row = matrix[(rows & -rows).bit_length() - 1]
            value = zero
            columns = [c for c in range(n) if cols >> c & 1]
            for position, c in enumerate(columns):
                sub = minor(rows & (rows - 1), cols ^ (1 << c)) if row[c] else None
                if sub:
                    term = row[c] if sub is one else row[c] * sub
                    value = value - term if position % 2 else value + term
            memo[(rows, cols)] = value
        return value

    full = (1 << n) - 1
    adjugate = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = minor(full ^ (1 << j), full ^ (1 << i))
            adjugate[i][j] = -m if (i + j) % 2 else m
    return minor(full, full), adjugate


# -- fraction-free fast path over Gaussian integers ------------------------------

def gaussian_int_echelon(rows):
    """Row echelon form of a matrix of Gaussian integers given as (re, im)
    int pairs: its nonzero rows, which span the row space of the input.

    Single-step Bareiss elimination (``_bareiss_tails``): intermediate
    entries stay minors of the input instead of growing exponentially.  No
    content stripping: it would break the exactness of the Bareiss division.
    Only columns right of the pivot are updated, and a row that becomes zero
    is dropped.
    """
    rows = [list(r) for r in rows if any(a or b for a, b in r)]
    echelon = []
    prev = (1, 0, 1)
    for col in range(len(rows[0]) if rows else 0):
        pr = next((k for k, row in enumerate(rows) if row[col] != (0, 0)), None)
        if pr is None:
            continue
        prow = rows.pop(pr)
        echelon.append(prow)
        zeros = [(0, 0)] * (col + 1)
        rows = [zeros + tail for tail in _bareiss_tails(rows, prow, col, prev)
                if tail.count((0, 0)) < len(tail)]
        pa, pb = prow[col]
        prev = (pa, pb, pa * pa + pb * pb)
    return echelon


def gaussian_int_adjugate(rows):
    """(d, d G^-1) for a square matrix G of Gaussian integers given as
    (re, im) int pairs, with d = +-det G; d G^-1 is the adjugate up to that
    sign.  Raises SingularMatrixError when det G = 0.

    Fraction-free Gauss-Jordan on [G | I]: the Bareiss update of
    ``gaussian_int_echelon`` applied to the rows above the pivot as well.
    After the pivot of column k every row holds the pivot p_k in its own
    pivot column, so the rows end as [d I | d G^-1] with d the last pivot.
    """
    n = len(rows)
    aug = [list(row) + [(1, 0) if c == r else (0, 0) for c in range(n)]
           for r, row in enumerate(rows)]
    prev = (1, 0, 1)
    for col in range(n):
        pr = next((k for k in range(col, n) if aug[k][col] != (0, 0)), None)
        if pr is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pr] = aug[pr], aug[col]
        prow = aug.pop(col)
        # columns up to col would hold only each row's own pivot, which is
        # never read again, so they are filled with zeros
        aug = [[(0, 0)] * (col + 1) + tail
               for tail in _bareiss_tails(aug, prow, col, prev)]
        aug.insert(col, prow)
        pa, pb = prow[col]
        prev = (pa, pb, pa * pa + pb * pb)
    return (prev[0], prev[1]), [row[n:] for row in aug]


def _bareiss_tails(rows, prow, col, prev):
    """For each row, the entries right of ``col`` of (p row - row[col] prow) / q,
    where p is the pivot prow[col] and q the previous pivot, given as
    (re, im, norm).

    The division is exact (Bareiss identity).  Every row is rescaled, zero
    entries in the pivot column included; skipping them would break that.
    """
    pa, pb = prow[col]
    ptail = prow[col + 1:]
    prev_re, prev_im, prev_norm = prev
    tails = []
    for row in rows:
        ka, kb = row[col]
        tail = []
        for (xa, xb), (ya, yb) in zip(row[col + 1:], ptail):
            na = pa * xa - pb * xb - (ka * ya - kb * yb)
            nb = pa * xb + pb * xa - (ka * yb + kb * ya)
            if na or nb:
                if prev_im:
                    na, nb = ((na * prev_re + nb * prev_im) // prev_norm,
                              (nb * prev_re - na * prev_im) // prev_norm)
                elif prev_re != 1:
                    na, nb = na // prev_re, nb // prev_re
            tail.append((na, nb))
        tails.append(tail)
    return tails


# -- certified rank: pivots mod a prime, kernel checked in Gaussian integers ------

# A prime p = 1 mod 4 and a square root of -1 mod p: a + b i -> a + b s mod p
# is a ring map Z[i] -> Z/p, so a minor that is nonzero mod p is nonzero.
RANK_PRIME = 2 ** 61 - 31
RANK_SQRT_M1 = 583529827753931384


def gaussian_int_kernel(rows, ncols):
    """A basis of {x : A x = 0} for the matrix A of Gaussian integers with
    the given rows, as lists of (re, im) int pairs, proved from both sides.

    Lower bound: elimination mod RANK_PRIME finds r pivot rows whose r x r
    minor on the pivot columns is nonzero mod p, hence nonzero, so rank >= r.
    Upper bound: the pivot rows alone give one kernel vector per free column
    (``_kernel_vectors``), d there and 0 at the other free columns; these are
    independent, and when every other row has dot product 0 with each,
    rank <= r and they span the kernel.  A failed check (p divides a minor
    that decides the rank) falls back to the vectors of all the rows.  So a
    vector divided by d, its last nonzero entry, is the standard free-column
    basis vector of the reduced echelon form, in ascending free-column order.
    """
    pivot_rows = [rows[k] for k in _modular_pivot_rows(rows, ncols)]
    if len(pivot_rows) == ncols:
        return []
    vectors = _kernel_vectors(pivot_rows, ncols)
    if len(pivot_rows) == len(rows) or _annihilates(vectors, rows, ncols):
        return vectors
    return _kernel_vectors(rows, ncols)


def gaussian_int_rank(rows) -> int:
    """Rank of a matrix of Gaussian integers given as (re, im) int pairs:
    the number of columns less the dimension of ``gaussian_int_kernel``."""
    ncols = len(rows[0]) if rows else 0
    return ncols - len(gaussian_int_kernel(rows, ncols))


def _modular_pivot_rows(rows, ncols):
    """Indices of the pivot rows of the rows reduced mod RANK_PRIME, by
    elimination with the first nonzero entry of each column as pivot.

    Each row is one int holding an entry per slot of ``width`` bits, so a row
    update is one multiply-add.  Updates add the normalized pivot row (entries
    below p) times p - f and are never reduced: a slot receives at most one
    update per pivot, so it stays below p + ncols p^2 and never carries.
    """
    p = RANK_PRIME
    width = 2 * p.bit_length() + ncols.bit_length() + 1
    mask = (1 << width) - 1
    packed = []
    for k, row in enumerate(rows):
        x = 0
        for a, b in reversed(row):
            x = (x << width) | (a + b * RANK_SQRT_M1) % p
        if x:
            packed.append((k, x))
    pivot_rows = []
    for col in range(ncols):
        shift = col * width
        heads = [((x >> shift) & mask) % p for _, x in packed]
        pr = next((i for i, f in enumerate(heads) if f), None)
        if pr is None:
            continue
        k, x = packed.pop(pr)
        pivot = heads.pop(pr)
        pivot_rows.append(k)
        if not any(heads):
            continue
        inv = pow(pivot, -1, p)
        # the pivot row scaled to pivot 1, right of the pivot only
        unit = 0
        for c in range(ncols - 1, col, -1):
            unit = (unit << width) | ((x >> (c * width)) & mask) * inv % p
        unit <<= shift + width
        packed = [(k, x + (p - f) * unit) if f else (k, x)
                  for (k, x), f in zip(packed, heads)]
    return pivot_rows


def _kernel_vectors(rows, ncols):
    """One kernel vector of the given rows per free column, as lists of
    (re, im) pairs.

    The Bareiss echelon form U of the rows A has pivot columns C and last
    pivot d = +-det A_C.  The vector of free column f holds d at f, 0 at the
    other free columns and at C the solution of U_C x = -d U_f, which is that
    of A_C x = -d A_f and so integral by Cramer's rule; back-substitution
    finds it with exact Gaussian divisions, and it is 0 right of f.
    """
    echelon = gaussian_int_echelon(rows)
    pivots = [next(c for c, e in enumerate(row) if e != (0, 0)) for row in echelon]
    da, db = echelon[-1][pivots[-1]] if echelon else (1, 0)
    vectors = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [(0, 0)] * ncols
        v[f] = (da, db)
        for row, c in zip(reversed(echelon), reversed(pivots)):
            na = nb = 0
            for j in range(c + 1, ncols):
                ya, yb = v[j]
                if ya or yb:
                    ua, ub = row[j]
                    if ua or ub:
                        na -= ua * ya - ub * yb
                        nb -= ua * yb + ub * ya
            pa, pb = row[c]
            norm = pa * pa + pb * pb
            v[c] = ((na * pa + nb * pb) // norm, (nb * pa - na * pb) // norm)
        vectors.append(v)
    return vectors


def _annihilates(vectors, rows, ncols) -> bool:
    """Whether every row has dot product 0 with every vector, exactly.

    Column c of all the vectors is packed into one int per part, vector f at
    bit f K (K = ``shift``), so a row's products sum to sum_f D_f 2^(f K),
    with D_f its dot product with vector f.  Each |D_f| is below 2^(K - 1),
    so the sum is 0 only when every D_f is.
    """
    shift = _max_bits(vectors) + _max_bits(rows) + ncols.bit_length() + 2
    re, im = [0] * ncols, [0] * ncols
    for v in reversed(vectors):
        for c, (a, b) in enumerate(v):
            re[c] = (re[c] << shift) + a
            im[c] = (im[c] << shift) + b
    for row in rows:
        sa = sb = 0
        for (a, b), va, vb in zip(row, re, im):
            if a:
                sa += a * va
                sb += a * vb
            if b:
                sa -= b * vb
                sb += b * va
        if sa or sb:
            return False
    return True


def _max_bits(matrix) -> int:
    """Bit length of the largest real or imaginary part in the matrix."""
    parts = chain.from_iterable(chain.from_iterable(matrix))
    return max(map(abs, parts), default=0).bit_length()
