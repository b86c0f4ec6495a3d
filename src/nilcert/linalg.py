"""Exact linear algebra over field-like scalars.

All routines are deterministic: pivots are chosen as the first nonzero entry
scanning columns left to right and rows top to bottom, so echelon forms are
reproducible for golden tests.  One fraction-free Bareiss update over
Gaussian integers, with its exact division by the previous pivot, serves two
routines: the elimination gaussian_int_echelon gives the spans of the
identify path (powers); its Gauss-Jordan form gaussian_int_adjugate gives
det and adjugate for the change of basis of a Q(i) table.
gaussian_int_kernel (the annihilator, the derivations and their dimension,
the invertibility test of random bases) proves a kernel from both sides,
eliminating only the rows the proof needs.  Lower bound: the elimination
modulo a prime of any rows of the matrix finds pivot rows whose pivot minor
is nonzero mod p, hence nonzero.  Upper bound: the kernel vectors of their
reduced echelon form mod p, lifted to Gaussian integers by rational
reconstruction, are checked exactly against every row of the matrix; they
are independent by their identity block at the free columns.  The first
rows taken are evenly spaced; a failed check names the rows to add.
Bareiss on all the rows is only the fallback.  gaussian_int_rank counts
the vectors.
rref and invert_matrix work over Q(i).  laplace_adjugate, with no division,
gives det and adjugate over any commutative ring; the change of basis of a
parametric witness runs it on polynomials in Z[i][t] (``scalars.Poly`` over
1).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, isqrt

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


# -- certified kernel: reduced echelon forms mod primes, lifted and checked --------

# Primes p = 1 mod 4, each with a square root s of -1 mod p: a + b i ->
# a +- b s mod p are ring maps Z[i] -> Z/p, so a minor that is nonzero mod p
# under either is nonzero.  None is wider than the first, which sets the
# slot width of packed rows.
RANK_PRIMES = (
    (2 ** 61 - 31, 583529827753931384),
    (2 ** 61 - 259, 966685122347009555),
    (2 ** 61 - 283, 1015389886790033265),
    (2 ** 61 - 339, 330140092769082148),
)
RANK_PRIME, RANK_SQRT_M1 = RANK_PRIMES[0]
# a random residue has a lift with probability about 2^-LIFT_MARGIN (``_lift``)
LIFT_MARGIN = 20


class IntRows:
    """A matrix of Gaussian integers as ``gaussian_int_kernel`` reads it,
    here from its rows as lists of (re, im) int pairs.  A subclass may give
    the same matrix without building them (``derivations.LeibnizRows``).

    ``keys`` names the rows, here by index, in the order ``products``
    yields them; ``gaussian`` tells whether an entry has an imaginary part,
    and ``norm_bits`` bounds the bit length of a row's sum of
    max(|re|, |im|)."""

    def __init__(self, rows, ncols):
        self._rows, self._ncols = rows, ncols
        self.keys = range(len(rows))

    @cached_property
    def gaussian(self):
        return any(b for row in self._rows for _, b in row)

    @cached_property
    def norm_bits(self):
        return max_bits(self._rows) + self._ncols.bit_length()

    def modular(self, prime, root, width, keys):
        """(key, x) for each row with a key in ``keys`` that is not all
        zero: x packs the row mod ``prime`` under i -> root, entry c in the
        ``width`` bits at bit c width, each below 3 prime."""
        packed = []
        for k in keys:
            x = 0
            for a, b in reversed(self._rows[k]):
                x = (x << width) | (a + b * root) % prime
            if x:
                packed.append((k, x))
        return packed

    def products(self, xs, ys):
        """For each row, sum_c (a_c xs[c] + b_c ys[c]) over its entries
        a_c + b_c i (see ``_failing_rows``)."""
        for row in self._rows:
            s = 0
            for (a, b), x, y in zip(row, xs, ys):
                if a:
                    s += a * x
                if b:
                    s += b * y
            yield s

    def rows(self):
        """The rows, for the Bareiss fallback."""
        return self._rows


def gaussian_int_kernel(rows, ncols):
    """A basis of {x : A x = 0} for the matrix A of Gaussian integers with
    the given rows (lists of (re, im) int pairs, or an ``IntRows``), proved
    from both sides, eliminating only the rows the proof needs.

    Lower bound: any rows of A whose elimination mod p = RANK_PRIME, under
    i -> s, finds r pivots have an r x r minor on the pivot columns that is
    nonzero mod p, hence nonzero, so rank A >= r.  The first round takes
    ``ncols`` evenly spaced rows of those not zero mod p (all of them when
    there are fewer); full column rank returns here.
    Upper bound: the reduced echelon form R of the pivot rows mod p gives
    the kernel vector e_f - sum_i R_if e_(c_i) of each free column f; for
    Gaussian rows, the pivot rows reduced under i -> -s as well give its
    real and imaginary parts.  ``_lift`` lifts it to Gaussian integers
    times a common denominator D >= 1, so it holds D at f and 0 at the
    other free columns; when some entry has no lift, the pivot rows are
    reduced mod the next prime of RANK_PRIMES too and the lift is retried
    mod the product (Chinese remainder theorem).  The lifted vectors are
    independent by their identity block at the free columns, and the exact
    check ``_failing_rows`` against every row of A either gives rank A <= r
    and that they span the kernel, or names the rows that fail.  Those not
    yet eliminated are added and the elimination goes on with them.  Rows
    that have the rank of A have its reduced echelon form, so the vectors
    do not depend on which rows were taken.

    A residue 0 lifts to 0, so a checked vector is 0 right of f, and a pivot
    that p hides leaves a vector that fails the check: the pivot columns
    are those of the reduced echelon form over Q(i).  Bareiss on all the
    rows (``_kernel_vectors``) runs only when an image loses a pivot, no
    lift is found, or the check fails on no row that is left to add (all
    eliminated already or zero mod p).  Either way a vector divided by its
    last nonzero entry, at its free column, is the standard free-column
    basis vector of the reduced echelon form, in ascending column order.
    """
    source = rows if isinstance(rows, IntRows) else IntRows(rows, ncols)
    width = 2 * RANK_PRIME.bit_length() + ncols.bit_length() + 2
    packed = source.modular(RANK_PRIME, RANK_SQRT_M1, width, source.keys)
    rest = {}  # the rows not yet eliminated
    if len(packed) > ncols > 0:
        step = len(packed) // ncols
        rest = dict(row for k, row in enumerate(packed)
                    if k % step or k >= step * ncols)
        packed = packed[:step * ncols:step]
    pivots = []
    while True:
        pivots = _modular_echelon(packed, ncols, width, RANK_PRIME, pivots)
        if len(pivots) == ncols:
            return []
        vectors = _lifted_vectors(source, pivots, ncols, width)
        if vectors is None:
            break
        failed = _failing_rows(vectors, source)
        if not failed:
            return vectors
        packed = [(k, rest.pop(k)) for k in failed if k in rest]
        if not packed:
            break
    return _kernel_vectors(source.rows(), ncols)


def gaussian_int_rank(rows, ncols=None) -> int:
    """Rank of a matrix of Gaussian integers (as for ``gaussian_int_kernel``;
    ``ncols`` defaults to the length of the first row): the number of
    columns less the dimension of its certified kernel."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return ncols - len(gaussian_int_kernel(rows, ncols))


def _modular_echelon(packed, ncols, width, prime, pivots=()):
    """(column, key, tail) of each pivot row, in column order, of rows
    packed as by ``IntRows.modular``, by elimination mod ``prime`` with the
    first nonzero entry of each column as pivot; the tail holds the row's
    entries right of the pivot as it stood when chosen, divided by the
    pivot, packed from bit 0, each below 2p (``_fold``).  Given the pivots
    of earlier rows, it goes on from them: those keep their columns, and
    the rows are reduced by them.  Each pivot row is zero left of its
    pivot, so the pivot rows are independent mod p either way.

    A row update is one multiply-add of the tail times p - f, never
    reduced: a slot starts below 3p and receives at most one update per
    pivot, so it stays below 3p + 2 ncols p^2 < 2^width.
    """
    mask, folding = (1 << width) - 1, _folding(ncols, width, prime)
    keys = [k for k, _ in packed]
    rows = [x for _, x in packed]
    known = {col: (key, tail) for col, key, tail in pivots}
    pivots = []
    for col in range(ncols):
        shift = col * width
        heads = [(x >> shift & mask) % prime for x in rows]
        if col in known:
            key, tail = known[col]
        else:
            pr = next((i for i, f in enumerate(heads) if f), None)
            if pr is None:
                continue
            key, x, head = keys.pop(pr), rows.pop(pr), heads.pop(pr)
            tail = x >> (shift + width)
            if tail:
                inverse = pow(head, -1, prime)
                tail = _fold(_fold(tail, folding) * inverse, folding)
        pivots.append((col, key, tail))
        if any(heads):
            unit = tail << (shift + width)
            rows = [x + (prime - f) * unit if f else x
                    for x, f in zip(rows, heads)]
    return pivots


@lru_cache(maxsize=None)
def _folding(ncols, width, prime):
    """(low, high, k, c) for ``_fold`` of ``ncols`` slots of ``width`` bits
    mod prime = 2^k - c: low masks the low k bits of each slot, high the
    next width - k bits of each slot of x >> k."""
    k = prime.bit_length()
    low = pack_slots([(1 << k) - 1] * ncols, width)
    high = pack_slots([(1 << (width - k)) - 1] * ncols, width)
    return low, high, k, (1 << k) - prime


def _fold(x, folding):
    """x with each slot replaced by one below 2 prime of the same residue
    (``_folding``).  A slot h 2^k + l is congruent to c h + l; two such
    folds of every slot at once bring a slot below 2^width to below
    2^k + c + c^2 2^(width - 2k), which is below 2 prime for each of
    RANK_PRIMES (k = 61, c < 2^9) at any width ``gaussian_int_kernel``
    takes."""
    low, high, k, c = folding
    x = (x & low) + c * (x >> k & high)
    return (x & low) + c * (x >> k & high)


def _reduced_entries(pivots, free, ncols, width, prime):
    """For each pivot row of ``_modular_echelon``, in order, its entries mod
    ``prime`` at the ``free`` columns in the reduced echelon form: by
    back-substitution from the last, on packed rows kept at the free
    columns only and folded after each row (slots below 2 prime)."""
    mask, folding = (1 << width) - 1, _folding(ncols, width, prime)
    keep = pack_slots([mask if c in free else 0 for c in range(ncols)], width)
    done, rows = [], []
    for col, _, tail in reversed(pivots):
        x = tail << ((col + 1) * width)
        for later, y in done:
            f = (tail >> ((later - col - 1) * width) & mask) % prime
            if f:
                x += (prime - f) * y
        x = _fold(x & keep, folding)
        done.append((col, x))
        rows.append([(x >> (f * width) & mask) % prime for f in free])
    return rows[::-1]


def _lifted_vectors(source, pivots, ncols, width):
    """One kernel vector of the pivot rows per free column, lifted from
    their reduced echelon forms mod one or more of RANK_PRIMES, or None."""
    columns = [col for col, _, _ in pivots]
    keys = [key for _, key, _ in pivots]
    free = sorted(set(range(ncols)) - set(columns))

    def reduced(prime, root):
        echelon = _modular_echelon(source.modular(prime, root, width, keys),
                                   ncols, width, prime)
        if [col for col, _, _ in echelon] == columns:
            return _reduced_entries(echelon, free, ncols, width, prime)
        return None

    parts, modulus = 1 + source.gaussian, 1
    for prime, root in RANK_PRIMES:
        images = [reduced(prime, root) if modulus > 1
                  else _reduced_entries(pivots, free, ncols, width, prime)]
        if source.gaussian:
            images.append(reduced(prime, prime - root))
        if None in images:
            return None
        # the entries -R as real parts, then for Gaussian rows imaginary
        # parts: from the images x + y s and x - y s of x + y i
        if source.gaussian:
            half, over_2s = pow(2, -1, prime), pow(2 * root, -1, prime)
            image = [[-(a + b) * half % prime for a, b in zip(u, v)]
                     + [(b - a) * over_2s % prime for a, b in zip(u, v)]
                     for u, v in zip(*images)]
        else:
            image = [[-a % prime for a in row] for row in images[0]]
        if modulus == 1:
            residues = image
        else:  # x = old mod modulus, x = new mod prime
            inverse = pow(modulus, -1, prime)
            residues = [[a + modulus * ((b - a) * inverse % prime)
                         for a, b in zip(old, new)]
                        for old, new in zip(residues, image)]
        modulus *= prime
        vectors = []
        for t, f in enumerate(free):
            lifted = _lift([row[u] for u in range(t, parts * len(free),
                                                  len(free))
                            for row in residues], modulus)
            if lifted is None:
                break
            d, values = lifted
            if not source.gaussian:
                values += [0] * len(columns)
            v = [(0, 0)] * ncols
            v[f] = (d, 0)
            for i, col in enumerate(columns):
                v[col] = (values[i], values[len(columns) + i])
            vectors.append(v)
        else:
            return vectors
    return None


def _lift(residues, modulus):
    """(d, [n_1, ...]) with n_k = d r_k mod ``modulus`` for one common
    denominator d >= 1, or None.  Numerators and d are at most
    B = isqrt(modulus / 2^(LIFT_MARGIN + 1)), so a lift is unique and a
    random residue has one with probability about 2^-LIFT_MARGIN.  An entry
    that d already brings within B is taken as it is; only the others go
    through rational reconstruction (Wang, Guy and Davenport, ACM SIGSAM
    Bull. 16, 1982), which multiplies d by the denominator it finds."""
    bound, half = isqrt(modulus >> (LIFT_MARGIN + 1)), modulus // 2
    d, values = 1, []
    for r in residues:
        y = r * d % modulus
        if y > half:
            y -= modulus
        if abs(y) > bound:
            # the half-extended Euclidean algorithm: r1 = t1 y mod modulus,
            # stopped at the first remainder within the bound
            r0, r1, t0, t1 = modulus, y % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            if not 0 < t1 <= bound // d or gcd(r1, t1) != 1:
                return None
            y, d = r1, d * t1
            values = [x * t1 for x in values]
        values.append(y)
    return d, values


def pack_slots(values, width):
    """Ints 0 <= v < 2^width in one int, value k at bit k width."""
    x = 0
    for v in reversed(values):
        x = (x << width) | v
    return x


def _kernel_vectors(rows, ncols):
    """One kernel vector of the given rows per free column, as lists of
    (re, im) pairs: the Bareiss fallback of ``gaussian_int_kernel``.

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


def _failing_rows(vectors, source):
    """The keys of the rows of the source that are not zero on every
    vector, exactly: the one check of lifted kernel vectors, for every kind
    of ``IntRows``.

    Column c of the vectors is packed into one int X_c: the real part of
    vector f at bit f K (K = ``shift``) and its imaginary part at bit
    H + f K (H = K times the number of vectors).  Y_c packs i times the
    same entries, so an entry a + b i of a row contributes a X_c + b Y_c,
    and a row's products sum to the real and imaginary parts of its dot
    product with each vector, each in its own K bits.  Each part is below
    2^(K - 1) in absolute value, so the sum is 0 only when every part is.
    """
    shift = max_bits(vectors) + source.norm_bits + 2
    high = shift * len(vectors)
    xs, ys = [], []
    for column in zip(*vectors):
        re, im = pack_pairs(column, shift)
        xs.append(re + (im << high))
        ys.append((re << high) - im)
    return [k for k, s in zip(source.keys, source.products(xs, ys)) if s]


def pack_pairs(pairs, step):
    """(re, im) for Gaussian-integer (re, im) pairs: each part packed into
    one int, pair k at bit k step, as signed digits.  Two such packings are
    equal only when their digits are, if each digit is below 2^step in
    absolute value."""
    re = im = 0
    for a, b in reversed(pairs):
        re = (re << step) + a
        im = (im << step) + b
    return re, im


def max_bits(matrix) -> int:
    """Bit length of the largest real or imaginary part in the matrix."""
    parts = chain.from_iterable(chain.from_iterable(matrix))
    return max(map(abs, parts), default=0).bit_length()
