"""Seeded inputs and independent oracles of the benchmark's workloads.

Every expected verdict here is computed by this file, apart from the package:
the paper's derivation column, a covering reduction of the reference edge
list and the fingerprint collision for identification.  Inputs depend only
on the seed, so a seed fixes the work.
"""

from __future__ import annotations

import hashlib
import os
import random
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "nilcert", "data")

# verify_all sample budget: fixed on every commit so rounds stay comparable.
ESCAPE_SAMPLES = 16
BOREL_SAMPLES = 4
JOBS = 2

# Derivation-dimension column of the classification, as printed in the paper.
PAPER_DER_DIMS = {
    "A_01": 5, "A_02": 6, "A_03": 6, "A_04": 7, "A_05": 7, "A_06": 7,
    "A_07": 7, "A_08": 8, "A_09": 8, "A_10": 9, "A_11": 9, "A_12": 11,
    "A_13": 8, "A_14": 9, "A_15": 9, "A_16": 10, "A_17": 10, "A_18": 11,
    "A_19": 11, "A_20": 12, "A_21": 11, "A_22": 12, "A_23": 14, "A_24": 17,
    "C5": 25,
}

# The one pair the invariant fingerprint does not separate.
COLLISION = ("A_11", "A_15")

# Gaussian conjugation pool: (re values, im values, band of the determinant's
# norm).  The band holds the middle half of unrestricted draws.
GAUSSIAN_ENTRIES = ((-1, 0, 1), (-1, 0, 1), (136, 535))


def rng_for(seed, label):
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def read_data(*parts):
    with open(os.path.join(DATA, *parts), encoding="ascii") as handle:
        return handle.read()


# -- the reference graph -----------------------------------------------------------


def reference_edges():
    edges = []
    for line in read_data("reference_graph_edges.txt").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            a, b = (part.strip() for part in line.split("->"))
            edges.append((a, b))
    return edges


def covering_reduction(edges):
    """(covering edges, dropped edges) of the order the edges generate."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)

    def reach(start):
        seen, todo = set(), list(succ.get(start, ()))
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(succ.get(node, ()))
        return seen

    below = {node: reach(node) for node in succ}
    covering, dropped = set(), set()
    for a, b in set(edges):
        implied = any(b in below.get(c, ()) for c in succ[a] if c != b)
        (dropped if implied else covering).add((a, b))
    return covering, dropped


# -- identify inputs ---------------------------------------------------------------
#
# Gaussian rationals are (re, im) pairs of Fractions here, so the conjugation
# below shares no arithmetic with the package.


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def invert(matrix):
    """(inverse, determinant) over Q(i) by Gauss-Jordan; None when singular."""
    n = len(matrix)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(matrix)]
    det = ONE
    for col in range(n):
        pr = next((r for r in range(col, n) if aug[r][col] != ZERO), None)
        if pr is None:
            return None
        if pr != col:
            aug[col], aug[pr] = aug[pr], aug[col]
            det = (-det[0], -det[1])
        det = _mul(det, aug[col][col])
        pv = _inv(aug[col][col])
        aug[col] = [_mul(pv, x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != ZERO:
                f = aug[r][col]
                aug[r] = [_add(x, _mul((-f[0], -f[1]), y))
                          for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], det


def random_basis(rng, pool, dim=5):
    """Seeded dense matrix with entries re + im*i drawn from ``pool``.

    ``pool`` is (re values, im values, (lo, hi)); draws are rejected until
    the norm of the determinant lies in [lo, hi], which keeps the cost of an
    input from swinging with the seed.
    """
    res, ims, (lo, hi) = pool
    while True:
        m = [[(Fraction(rng.choice(res)), Fraction(rng.choice(ims)))
              for _ in range(dim)] for _ in range(dim)]
        inverted = invert(m)
        if inverted is not None:
            inverse, det = inverted
            if lo <= det[0] ** 2 + det[1] ** 2 <= hi:
                return m, inverse


def triangular_basis(rng, dim=5):
    """Seeded dense integer matrix L D U with determinant 2.

    L and U are unit lower and unit upper triangular with off-diagonal
    entries +-1, and D doubles one seeded row of U.  The determinant sets the
    denominators of the conjugated constants, and the cost of an input grows
    with its number of nonzero constants: a matrix with entries drawn from
    {-1, 0, 1} and |det| = 2 left from a third to all of them nonzero, so the
    median operation moved by a third from seed to seed.
    """
    lower = [[1 if i == j else rng.choice((-1, 1)) if i > j else 0
              for j in range(dim)] for i in range(dim)]
    upper = [[1 if i == j else rng.choice((-1, 1)) if i < j else 0
              for j in range(dim)] for i in range(dim)]
    doubled = rng.randrange(dim)
    upper[doubled] = [2 * x for x in upper[doubled]]
    matrix = [[(Fraction(sum(lower[i][m] * upper[m][j] for m in range(dim))),
                Fraction(0)) for j in range(dim)] for i in range(dim)]
    inverse, _ = invert(matrix)
    return matrix, inverse


def conjugate(constants, matrix, inverse, dim=5):
    """Constants of the algebra in the basis f_i = sum_j matrix[i][j] e_j."""
    out = {}
    for i in range(dim):
        for j in range(i, dim):
            prod = [ZERO] * dim
            for (a, b, c), value in constants.items():
                coeff = _mul(_mul(matrix[i][a], matrix[j][b]), value)
                if coeff != ZERO:
                    prod[c] = _add(prod[c], coeff)
            for k in range(dim):
                acc = ZERO
                for m in range(dim):
                    if prod[m] != ZERO:
                        acc = _add(acc, _mul(prod[m], inverse[m][k]))
                if acc != ZERO:
                    out[(i, j, k)] = acc
    return out


def format_rational(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def _format_gaussian(z):
    re_part, im_part = z
    if not im_part:
        return f"({format_rational(re_part)})"
    return f"({format_rational(re_part)} + ({format_rational(im_part)})*i)"


def algebra_text(name, constants, dim=5):
    """A commutative algebra file listing each unordered product once."""
    lines = [f"algebra {name}", f"dim {dim}", "field Q(i)", "table commutative"]
    for i in range(dim):
        for j in range(i, dim):
            terms = [f"{_format_gaussian(constants[(i, j, k)])} * e_{k + 1}"
                     for k in range(dim) if (i, j, k) in constants]
            if terms:
                lines.append(f"e_{i + 1} * e_{j + 1} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def expected_candidates(name):
    return list(COLLISION) if name in COLLISION else [name]


def identify_inputs(seed, tables):
    """(label, source name, algebra text) for one round of identify.

    ``tables`` maps each catalog name to its constants as (re, im) Fraction
    pairs.  Every name is conjugated by a dense integer basis, and every
    third name in sorted order also by a dense Gaussian-integer basis.
    Gaussian inputs cost about twice as much, so with 25 integer and 9
    Gaussian inputs the median falls among the integer ones and the 90th
    percentile amid the Gaussian ones.
    """
    kinds = (("integer", triangular_basis),
             ("gaussian", lambda rng: random_basis(rng, GAUSSIAN_ENTRIES)))
    inputs = []
    for index, name in enumerate(sorted(tables)):
        for kind, basis in kinds[:1 if index % 3 else 2]:
            rng = rng_for(seed, f"identify:{name}:{kind}")
            constants = conjugate(tables[name], *basis(rng))
            inputs.append((f"{name}:{kind}", name,
                           algebra_text(f"{name}_conj", constants)))
    return inputs


# -- statistics ------------------------------------------------------------------


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
