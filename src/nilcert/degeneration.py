"""Verification of degenerations from parametric bases.

A witness for "source degenerates to target" is a t-parametrized basis
E_i(t) = sum_j a_ij(t) e_j of the source algebra.  Verification is exact:

1. the family must be generically invertible (det as a field element != 0;
   the finitely many exceptional t values are reported, never silently used),
2. the structure constants of the source in the E-basis are computed
   exactly in Q(i)(t), the rational functions in t,
3. every constant must have a finite limit at t -> 0, and the limit table
   must equal the target's table entry for entry, with no tolerance.

A successful verdict additionally cross-checks the strict increase of the
derivation dimension for proper claims.  A floating-point spot evaluation of
the exact constants at small t is available as an advisory sanity check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from . import catalog
from .algebra import GAUSSIAN_FIELD, TOWER_FIELD, StructureTable
from .linalg import det
from .scalars import LimitDiverges, Poly, RationalFunction

VERIFIED = "VERIFIED"
SINGULAR_FAMILY = "SINGULAR_FAMILY"
LIMIT_DIVERGES = "LIMIT_DIVERGES"
LIMIT_MISMATCH = "LIMIT_MISMATCH"


class SingularFamilyError(ValueError):
    """The parametric basis is singular as a family (det = 0 identically)."""


class LimitFailure(Exception):
    """Entrywise limit failed; carries the 1-based (i, j, k) and the reason."""

    def __init__(self, index, reason, detail):
        super().__init__(f"c{index}: {reason} ({detail})")
        self.index = index
        self.reason = reason
        self.detail = detail


class ParametricMatrix:
    """Rows are the parametric basis vectors, entries rational functions in t."""

    __slots__ = ("rows", "_det")

    def __init__(self, rows):
        self.rows = tuple(tuple(RationalFunction.coerce(c) for c in row)
                          for row in rows)
        self._det = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def det(self) -> RationalFunction:
        """Determinant of the family; computed on first use, the rows are immutable."""
        if self._det is None:
            zero, one = TOWER_FIELD.zero, TOWER_FIELD.one
            self._det = det([list(r) for r in self.rows], zero, one)
        return self._det

    def eval_complex(self, at: complex):
        return [[c.eval_complex(at) for c in row] for row in self.rows]

    def exceptional_values(self):
        """Rational t values where the family breaks down (poles, det zeros).

        Roots are extracted by the rational root theorem when the relevant
        polynomial has rational coefficients and its constant and leading
        coefficients fit in ROOT_SEARCH_BITS bits; other factors are reported
        as polynomial strings since exact root-finding over Q(i) is out of
        scope.  The values are informational: no verdict depends on them.
        """
        candidates = set()
        unresolved = []
        polys = [c.den for row in self.rows for c in row]
        polys.append(self.det().num)
        for p in polys:
            if p.degree <= 0:
                continue
            roots, fully_solved = _rational_roots(p)
            candidates.update(r for r in roots if r != 0)
            if not fully_solved:
                unresolved.append(repr(p))
        return sorted(candidates), sorted(set(unresolved))


# Candidate roots num/den come from the divisors of the constant and leading
# coefficients.  Below 2^24 an integer has at most 448 divisors, which bounds
# the search at about 2 * 448^2 candidates per polynomial; larger
# coefficients would let a witness file make verification arbitrarily slow.
ROOT_SEARCH_BITS = 24


def _rational_roots(p: Poly):
    """Nonzero rational roots via the rational root theorem.

    Returns (roots, fully_solved); fully_solved is False when non-rational
    coefficients or a residual factor of positive degree remain, or when the
    constant or leading coefficient exceeds ROOT_SEARCH_BITS bits.
    """
    if any(c.im for c in p.coeffs):
        return [], False
    coeffs = list(p.coeffs)
    order = p.order
    coeffs = coeffs[order:]
    scale = 1
    for c in coeffs:
        scale = scale * c.re.denominator // gcd(scale, c.re.denominator)
    ints = [int(c.re * scale) for c in coeffs]
    if len(ints) == 1:
        return [], True
    roots = []
    residual_degree = len(ints) - 1
    lead, const = ints[-1], ints[0]
    if max(abs(lead), abs(const)).bit_length() > ROOT_SEARCH_BITS:
        return [], False
    for num in _divisors(const):
        for den in _divisors(lead):
            if gcd(num, den) != 1:
                continue  # the reduced fraction is tried on its own
            for sign in (1, -1):
                if _scaled_value(ints, sign * num, den) == 0:
                    roots.append(Fraction(sign * num, den))
    # a root of multiplicity > 1 or an irrational factor may remain; report
    # fully_solved only when the found roots account for the whole degree
    total = 0
    for r in roots:
        m = 0
        work = ints
        while True:
            quo, rem = _poly_int_divmod(work, r)
            if rem != 0:
                break
            work = quo
            m += 1
        total += m
    return roots, total == residual_degree


def _divisors(n):
    """Positive divisors of n in increasing order, by trial up to sqrt|n|."""
    n = abs(n)
    if n == 0:
        return [1]
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def _scaled_value(ints, num, den):
    """den^deg * p(num / den) for integer coefficients ints, in integers."""
    value, den_power = 0, 1
    for c in reversed(ints):
        value = value * num + c * den_power
        den_power *= den
    return value


def _poly_int_divmod(ints, root):
    """Synthetic division of an integer-coefficient poly by (x - root)."""
    quo = [Fraction(0)] * (len(ints) - 1)
    carry = Fraction(0)
    for k in range(len(ints) - 1, 0, -1):
        carry = Fraction(ints[k]) + carry
        quo[k - 1] = carry
        carry = carry * root
    rem = Fraction(ints[0]) + carry
    return quo, rem


@dataclass(frozen=True)
class DegenerationWitness:
    source: str
    target: str
    matrix: ParametricMatrix
    witness_id: str = ""


@dataclass
class Verdict:
    status: str
    source: str
    target: str
    details: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED


def generic_invertibility(matrix: ParametricMatrix) -> bool:
    """det != 0 as a field element: a basis for all but finitely many t."""
    return not matrix.det().is_zero


def transformed_constants(source: StructureTable,
                          matrix: ParametricMatrix) -> StructureTable:
    """Structure constants of the source in the parametric basis.

    This is StructureTable.change_basis over Q(i)(t);
    raises SingularFamilyError when the family is identically singular.
    """
    if not generic_invertibility(matrix):
        raise SingularFamilyError("parametric basis has identically zero determinant")
    lifted = source if source.field is TOWER_FIELD else source.lift_to_tower()
    return lifted.change_basis(matrix.rows)


def limit_table(param: StructureTable) -> StructureTable:
    """Entrywise limit at t -> 0; raises LimitFailure with the offending index."""
    entries = {}
    for (i, j, k), c in sorted(param.entries.items()):
        try:
            value = c.limit_at_zero()
        except LimitDiverges as exc:
            raise LimitFailure((i + 1, j + 1, k + 1), LIMIT_DIVERGES, str(exc)) from exc
        if not value.is_zero:
            entries[(i, j, k)] = value
    return StructureTable(param.dim, entries, GAUSSIAN_FIELD)


def verify(witness: DegenerationWitness, t_samples=()) -> Verdict:
    """Full exact verification of one parametric-basis witness.

    When the witness verifies and t_samples is nonempty, the advisory
    numeric cross-check runs on the transformed constants already computed
    here and its samples go to details["numeric"] as plain dicts.
    """
    source = catalog.get(witness.source)
    target = catalog.get(witness.target)
    details = {}

    exceptional, unresolved = witness.matrix.exceptional_values()
    details["exceptional_t"] = [str(x) for x in exceptional]
    if unresolved:
        details["unresolved_factors"] = unresolved

    if not generic_invertibility(witness.matrix):
        return Verdict(SINGULAR_FAMILY, witness.source, witness.target, details)

    param = transformed_constants(source.table, witness.matrix)
    try:
        limit = limit_table(param)
    except LimitFailure as failure:
        details["failed_at"] = failure.index
        details["reason"] = failure.detail
        return Verdict(failure.reason, witness.source, witness.target, details)

    if limit != target.table:
        diff = _table_diff(limit, target.table)
        details["mismatched_entries"] = diff
        return Verdict(LIMIT_MISMATCH, witness.source, witness.target, details)

    der_source = catalog.catalog_fingerprint(witness.source).dim_der
    der_target = catalog.catalog_fingerprint(witness.target).dim_der
    details["dim_der"] = {"source": der_source, "target": der_target}
    proper = witness.source != witness.target
    details["der_check"] = "ok" if (der_source < der_target if proper
                                    else der_source == der_target) else "violated"
    if t_samples:
        details["numeric"] = [asdict(sample) for sample in
                              numeric_crosscheck(witness, t_samples, param)]
    return Verdict(VERIFIED, witness.source, witness.target, details)


def _table_diff(got: StructureTable, want: StructureTable):
    diff = []
    keys = sorted(set(got.entries) | set(want.entries))
    for (i, j, k) in keys:
        g = got.entry(i, j, k)
        w = want.entry(i, j, k)
        if g != w:
            diff.append({"index": [i + 1, j + 1, k + 1],
                         "got": repr(g), "want": repr(w)})
    return diff


# -- advisory numeric cross-check -------------------------------------------------


ILL_CONDITIONED = "ILL_CONDITIONED"


@dataclass
class NumericSample:
    t: float
    status: str            # "ok" or ILL_CONDITIONED
    max_deviation: float
    condition_estimate: float


def numeric_crosscheck(witness: DegenerationWitness, t_samples, param=None,
                       condition_bound: float = 1e12):
    """Evaluate the exact transformed constants at small complex t.

    Reports the max absolute deviation from the target constants per sample.
    Samples whose E-matrix condition estimate exceeds the bound are flagged
    ILL_CONDITIONED and the deviation is advisory only.  param is the
    transformed table when the caller already has it; otherwise it is
    computed here.
    """
    target = catalog.get(witness.target)
    if param is None:
        param = transformed_constants(catalog.get(witness.source).table,
                                      witness.matrix)
    samples = []
    for t in t_samples:
        t = complex(t)
        cond = _condition_estimate(witness.matrix.eval_complex(t))
        deviation = 0.0
        for i in range(param.dim):
            for j in range(param.dim):
                for k in range(param.dim):
                    value = param.entry(i, j, k).eval_complex(t)
                    wanted = target.table.entry(i, j, k).eval_complex()
                    deviation = max(deviation, abs(value - wanted))
        status = ILL_CONDITIONED if cond > condition_bound else "ok"
        samples.append(NumericSample(abs(t), status, deviation, cond))
    return samples


def _condition_estimate(matrix) -> float:
    """Frobenius condition number of a small complex matrix (inf if singular)."""
    n = len(matrix)
    aug = [list(row) + [1.0 + 0j if i == j else 0j for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv, piv_abs = None, 0.0
        for r in range(col, n):
            if abs(aug[r][col]) > piv_abs:
                piv, piv_abs = r, abs(aug[r][col])
        if piv is None or piv_abs == 0.0:
            return float("inf")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    norm = sum(abs(matrix[i][j]) ** 2 for i in range(n) for j in range(n)) ** 0.5
    inv_norm = sum(abs(aug[i][n + j]) ** 2 for i in range(n) for j in range(n)) ** 0.5
    return norm * inv_norm
