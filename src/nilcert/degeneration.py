"""Verification of degenerations from parametric bases.

A witness for "source degenerates to target" is a t-parametrized basis
E_i(t) = sum_j a_ij(t) e_j of the source algebra.  Verification is exact:

1. the family must be generically invertible (det as a field element != 0;
   the polynomials whose nonzero roots are the finitely many t where E(t)
   has a pole or is singular are reported, never silently used),
2. the structure constants of the source in the E-basis are computed
   exactly in Q(i)(t), the rational functions in t: the products of the rows
   on the source's Q(i) constants, times the inverse of E(t) over Q(i)(t),
3. every constant must have a finite limit at t -> 0, and the limit table
   must equal the target's table entry for entry, with no tolerance.

The Q(i)(t) constants exist only here, as a {(i, j, k): RationalFunction}
dict of the nonzero ones; every StructureTable holds Q(i) constants.  A
successful verdict additionally cross-checks the strict increase of the
derivation dimension for proper claims.  A floating-point evaluation of the
exact constants at t = NUMERIC_T is an advisory sanity check: its deviation
from the target is that of the exact constants, whatever the conditioning of
E(t).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import catalog
from .algebra import StructureTable
from .linalg import det, invert_matrix, vec_matmul
from .scalars import RF_ONE, RF_ZERO, LimitDiverges, Poly, RationalFunction

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
            self._det = det([list(r) for r in self.rows], RF_ZERO, RF_ONE)
        return self._det

    def exceptional_values(self):
        """The polynomials whose nonzero roots are the t where the family
        breaks down: a pole of an entry or a zero of the determinant.

        Each entry's denominator and the determinant's numerator, with its
        power of t divided out and made monic, is listed by its repr when
        it has positive degree.  The list is exact and complete and costs no
        root search; no verdict reads it.
        """
        polys = [c.den for row in self.rows for c in row]
        polys.append(self.det().num)
        return sorted({repr(Poly(p.coeffs[p.order:]).monic())
                       for p in polys if p.degree > p.order})


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


def transformed_constants(source: StructureTable, matrix: ParametricMatrix):
    """Structure constants of the source in the parametric basis, as a
    {(i, j, k): RationalFunction} dict of the nonzero ones.

    c'(i, j, k) is coordinate k of E_i E_j, the product of the rows on the
    source's constants, times the inverse of E(t) over Q(i)(t).  When the
    source is commutative only the products with j >= i are formed and each
    is mirrored.  Raises SingularFamilyError when the family is identically
    singular.
    """
    if not generic_invertibility(matrix):
        raise SingularFamilyError("parametric basis has identically zero determinant")
    rows = matrix.rows
    inv = invert_matrix(rows, RF_ZERO, RF_ONE)
    commutative = source.is_commutative()
    constants = {}
    for i, x in enumerate(rows):
        for j in range(i if commutative else 0, len(rows)):
            y = rows[j]
            prod = [RF_ZERO] * len(rows)
            for (a, b, k), c in source.entries.items():
                if x[a] and y[b]:
                    prod[k] = prod[k] + x[a] * y[b] * c
            for k, c in enumerate(vec_matmul(prod, inv, RF_ZERO)):
                if c:
                    constants[(i, j, k)] = c
                    if commutative:
                        constants[(j, i, k)] = c
    return constants


def limit_table(constants, dim) -> StructureTable:
    """Entrywise limit at t -> 0 of {(i, j, k): RationalFunction} constants
    as a table of dimension dim; raises LimitFailure with the offending
    index."""
    entries = {}
    for (i, j, k), c in sorted(constants.items()):
        try:
            value = c.limit_at_zero()
        except LimitDiverges as exc:
            raise LimitFailure((i + 1, j + 1, k + 1), LIMIT_DIVERGES, str(exc)) from exc
        if not value.is_zero:
            entries[(i, j, k)] = value
    return StructureTable(dim, entries)


def verify(witness: DegenerationWitness) -> Verdict:
    """Full exact verification of one parametric-basis witness.

    When the witness verifies, the advisory numeric cross-check runs at
    NUMERIC_T on the transformed constants already computed here and its
    samples go to details["numeric"] as plain dicts.
    """
    source = catalog.get(witness.source)
    target = catalog.get(witness.target)
    details = {"exceptional_t_polys": witness.matrix.exceptional_values()}

    if not generic_invertibility(witness.matrix):
        return Verdict(SINGULAR_FAMILY, witness.source, witness.target, details)

    constants = transformed_constants(source.table, witness.matrix)
    try:
        limit = limit_table(constants, witness.matrix.dim)
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
    details["numeric"] = [asdict(sample) for sample in
                          numeric_crosscheck(witness, NUMERIC_T, constants)]
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


# the t at which verify evaluates the exact constants
NUMERIC_T = (1e-4,)

@dataclass
class NumericSample:
    t: float
    max_deviation: float


def numeric_crosscheck(witness: DegenerationWitness, t_samples, constants):
    """Evaluate the witness's exact transformed constants at small complex t.

    Reports the max absolute deviation from the target constants per sample.
    """
    target = catalog.get(witness.target).table.entries
    samples = []
    for t in t_samples:
        t = complex(t)
        deviation = 0.0
        for key in constants.keys() | target.keys():
            value = constants[key].eval_complex(t) if key in constants else 0j
            wanted = target[key].eval_complex() if key in target else 0j
            deviation = max(deviation, abs(value - wanted))
        samples.append(NumericSample(abs(t), deviation))
    return samples
