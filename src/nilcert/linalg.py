"""Exact linear algebra over field-like scalars.

All routines are deterministic: pivots are chosen as the first nonzero entry
scanning columns left to right and rows top to bottom, so echelon forms are
reproducible for golden tests.  One fraction-free Bareiss update over
Gaussian integers, with its exact division by the previous pivot, serves two
routines: the elimination gaussian_int_echelon gives the ranks and spans of
the identify path (powers, annihilator, dim Der) and the invertibility test
of random bases; its Gauss-Jordan form gaussian_int_adjugate gives det and
adjugate for the change of basis of a Q(i) table.  rref, invert_matrix and
det take the field's zero and one and work over any exact field: Q(i) for
subspaces and kernels, and the rational functions Q(i)(t) for the inverse and
determinant of a parametric witness basis.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """Matrix inversion or basis change attempted with a singular matrix."""


def rref(rows, zero, one):
    """Reduced row echelon form with unit pivots.

    Returns (rows, pivot_columns); zero rows are kept at the bottom.  Scalars
    are tested against zero through their truth value, which every exact
    scalar type here implements cheaply.
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
        if pv != one:
            rows[r] = [x / pv for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rk, rr = rows[k], rows[r]
                rows[k] = [a - f * b if b else a for a, b in zip(rk, rr)]
        pivots.append(col)
        r += 1
    return rows, pivots


def rank(rows, zero, one) -> int:
    return len(rref(rows, zero, one)[1])


def kernel_basis(rows, ncols, zero, one):
    """Basis of {x : A x = 0} for the matrix with the given rows.

    The basis is the standard free-column parametrization of the RREF, taken
    in ascending free-column order, so the output is deterministic.
    """
    reduced, pivots = rref(rows, zero, one)
    pivot_set = set(pivots)
    basis = []
    for free_col in range(ncols):
        if free_col in pivot_set:
            continue
        v = [zero] * ncols
        v[free_col] = one
        for ri, pc in enumerate(pivots):
            v[pc] = zero - reduced[ri][free_col]
        basis.append(v)
    return basis


def invert_matrix(matrix, zero, one):
    """Inverse via Gauss-Jordan on an identity augment."""
    n = len(matrix)
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug, zero, one)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


def det(matrix, zero, one):
    """Determinant by forward elimination with exact division."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    out = one
    for col in range(n):
        pr = None
        for k in range(col, n):
            if rows[k][col]:
                pr = k
                break
        if pr is None:
            return zero
        if pr != col:
            rows[col], rows[pr] = rows[pr], rows[col]
            out = zero - out
        pv = rows[col][col]
        out = out * pv
        for k in range(col + 1, n):
            if rows[k][col]:
                f = rows[k][col] / pv
                rows[k] = [a - f * b if b else a
                           for a, b in zip(rows[k], rows[col])]
    return out


def vec_matmul(vector, matrix, zero):
    """Row vector times matrix."""
    ncols = len(matrix[0])
    out = [zero] * ncols
    for k, vk in enumerate(vector):
        if not vk:
            continue
        row = matrix[k]
        out = [acc + vk * m if m else acc for acc, m in zip(out, row)]
    return out


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


def gaussian_int_rank(rows) -> int:
    """Rank of a matrix of Gaussian integers given as (re, im) int pairs."""
    return len(gaussian_int_echelon(rows))
