"""Verification of degenerations from parametric bases.

A witness for "source degenerates to target" is a t-parametrized basis
E_i(t) = sum_j a_ij(t) e_j of the source algebra.  Verification is exact:

1. the family must be generically invertible (det as a field element != 0;
   the polynomials whose nonzero roots are the finitely many t where E(t)
   has a pole or is singular are reported, never silently used),
2. the structure constants of the source in the E-basis are computed by the
   rule of ``StructureTable.change_basis`` in Z[i][t] (``scalars.Poly`` over
   1): row i of E(t) is G_i / D_i, D_i the product of its distinct
   denominators times m_i, the least int that makes the row integral; with
   N_ijk coordinate k of G_i G_j (on P = lambda mu) times adj G,
   c'(i, j, k) = N_ijk D_k / (lambda D_i D_j det G), an unreduced pair,
   each side put over K = lambda m_i m_j prod m by one content gcd,
3. every constant must have a finite limit at t -> 0, read from the t-orders
   and lowest coefficients of its pair, and the limit table must equal the
   target's table entry for entry, with no tolerance.

No polynomial gcd is taken.  A successful verdict additionally cross-checks
the strict increase of the derivation dimension for proper claims.  A
floating-point evaluation of the exact constants at t = NUMERIC_T is an
advisory sanity check: its deviation from the target is that of the exact
constants, whatever the conditioning of E(t).  Each pair is evaluated with
its common power of t divided out and with the binary exponent carried
apart from the float, so that no float overflows and none underflows but
in a negligible term.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from math import frexp, inf, lcm, ldexp, prod

from . import catalog
from .algebra import StructureTable
from .linalg import laplace_adjugate
from .scalars import (POLY_ONE, POLY_ZERO, GaussianRational, Poly,
                      RationalFunction, limit_at_zero)

VERIFIED = "VERIFIED"
SINGULAR_FAMILY = "SINGULAR_FAMILY"
LIMIT_DIVERGES = "LIMIT_DIVERGES"
LIMIT_MISMATCH = "LIMIT_MISMATCH"


class SingularFamilyError(ValueError):
    """The parametric basis is singular as a family (det = 0 identically)."""


class DimensionMismatchError(ValueError):
    """The witness basis and its source or target differ in dimension."""


class LimitFailure(Exception):
    """Entrywise limit failed; carries the 1-based (i, j, k) and the reason."""

    def __init__(self, index, reason, detail):
        super().__init__(f"c{index}: {reason} ({detail})")
        self.index = index
        self.reason = reason
        self.detail = detail


class ParametricMatrix:
    """Rows are the parametric basis vectors, entries rational functions in t."""

    __slots__ = ("rows", "_form")

    def __init__(self, rows):
        self.rows = tuple(tuple(RationalFunction.coerce(c) for c in row)
                          for row in rows)
        self._form = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def polynomial_form(self):
        """(D, G, det G, adj G) in Z[i][t], each a Poly over 1, kept on
        first use.  Row i is formed over Q(i) as the product of its distinct
        (monic) denominators, followed by each entry's numerator times the
        row's other denominators, and scaled by m_i, the lcm of the
        denominators of those polynomials: D_i is the first, so m_i is its
        lead, and G_i = D_i E_i the others.  No polynomial is divided."""
        if self._form is None:
            rows = []
            for row in self.rows:
                dens = list(dict.fromkeys(c.den for c in row))
                polys = [prod(dens[1:], start=dens[0])] + [
                    prod([u for u in dens if u != c.den], start=c.num) for c in row]
                m = lcm(*(p.d for p in polys))
                rows.append([p * m for p in polys])
            scales = [row.pop(0) for row in rows]
            self._form = (scales, rows, *laplace_adjugate(rows))
        return self._form

    def det(self) -> RationalFunction:
        """Determinant of the family, det G / prod D_i in lowest terms."""
        scales, _, det_g, _ = self.polynomial_form()
        return RationalFunction(det_g, prod(scales[1:], start=scales[0]))

    def exceptional_values(self):
        """The polynomials whose nonzero roots are the t where the family
        breaks down: a pole of an entry or a zero of the determinant.

        Each entry's denominator, and det G divided by each distinct
        denominator of each row where that is exact, with its power of t
        divided out and made monic, is listed by its repr if of positive
        degree.  A root of det G is a pole or a zero of det E, so the roots
        are exact even where a division misses a partial common factor.
        No gcd, no root search; no verdict reads it."""
        quotient = self.polynomial_form()[2]
        for row in self.rows:
            for den in dict.fromkeys(c.den for c in row if c.den != POLY_ONE):
                q, r = quotient.divmod(den)
                quotient = quotient if r else q
        polys = [c.den for row in self.rows for c in row] + [quotient]
        return sorted({repr(Poly(p.coeffs[p.order:]).monic())
                       for p in polys if p.degree > p.order})


@dataclass(frozen=True)
class DegenerationWitness:
    source: str
    target: str
    matrix: ParametricMatrix


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
    """det G != 0: a basis for all but finitely many t."""
    return bool(matrix.polynomial_form()[2])


def transformed_constants(source: StructureTable, matrix: ParametricMatrix):
    """Structure constants of the source in the parametric basis, as a
    {(i, j, k): (N_ijk D_k / K, lambda D_i D_j det G / K)} dict of the nonzero
    ones over Q(i)[t], N_ijk and the pair formed in Z[i][t] on P = lambda mu
    and each side put over K = lambda m_i m_j prod m with one content gcd.
    For a commutative source only the products with j >= i are formed and
    mirrored.  Raises SingularFamilyError when det G = 0."""
    scales, rows, det_g, adj = matrix.polynomial_form()
    if not det_g:
        raise SingularFamilyError("parametric basis has identically zero determinant")
    lam, tensor, commutative = source.integer_form()
    ms = [s.re[-1] for s in scales]
    terms = [(a, b, [(k, Poly.const(GaussianRational(p, q)))
                     for k, (p, q) in enumerate(ps) if p or q])
             for a, row in enumerate(tensor) for b, ps in enumerate(row)]
    constants = {}
    for i, x in enumerate(rows):
        for j in range(i if commutative else 0, len(rows)):
            y = rows[j]
            product = [POLY_ZERO] * len(rows)
            for a, b, ks in terms:
                if ks and x[a] and y[b]:
                    xy = x[a] * y[b]
                    for k, c in ks:
                        product[k] = product[k] + xy * c
            if not any(product):
                continue
            scale = lam * ms[i] * ms[j] * prod(ms)
            den = scales[i] * scales[j] * det_g / (scale // lam)
            for k, s_k in enumerate(scales):
                num = sum((p * adj_row[k] for p, adj_row in zip(product, adj)
                           if p and adj_row[k]), POLY_ZERO)
                if num:
                    pair = (num * s_k / scale, den)
                    constants[(i, j, k)] = pair
                    if commutative:
                        constants[(j, i, k)] = pair
    return constants


def limit_table(constants, dim) -> StructureTable:
    """Entrywise limit at t -> 0 of {(i, j, k): (num, den)} constants as a
    table of dimension dim; raises LimitFailure with the offending index."""
    entries = {}
    for (i, j, k), (num, den) in sorted(constants.items()):
        value = limit_at_zero(num, den)
        if value is None:
            raise LimitFailure((i + 1, j + 1, k + 1), LIMIT_DIVERGES,
                               f"order {num.order - den.order} at t=0")
        if value:
            entries[(i, j, k)] = value
    return StructureTable(dim, entries)


def verify(witness: DegenerationWitness) -> Verdict:
    """Full exact verification of one parametric-basis witness.

    When the witness verifies, the advisory numeric cross-check runs at
    NUMERIC_T on the transformed constants already computed here and its
    samples go to details["numeric"] as plain dicts.  A basis of another
    dimension than the algebras' raises DimensionMismatchError first.
    """
    source = catalog.get(witness.source)
    target = catalog.get(witness.target)
    if {source.table.dim, target.table.dim} != {witness.matrix.dim}:
        raise DimensionMismatchError(
            f"a basis of {witness.matrix.dim} vectors for algebras of "
            f"dimension {source.table.dim} and {target.table.dim}")
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
    pairs = ((key, got.entry(*key), want.entry(*key))
             for key in sorted(got.entries.keys() | want.entries.keys()))
    return [{"index": [i + 1 for i in key], "got": repr(g), "want": repr(w)}
            for key, g, w in pairs if g != w]


# -- advisory numeric cross-check -------------------------------------------------


# the t at which verify evaluates the exact constants
NUMERIC_T = (1e-4,)

@dataclass
class NumericSample:
    t: float
    max_deviation: float


def numeric_crosscheck(witness: DegenerationWitness, t_samples, constants):
    """Evaluate the witness's exact transformed constants, {(i, j, k): (num,
    den)} pairs of polynomials, at small complex t.

    Reports the max absolute deviation from the target constants per sample.
    ``_scaled_at`` evaluates each side of a pair, its common power of t
    divided out, and a product's shared denominator once; inf past the float
    range or at a pole.
    """
    target = catalog.get(witness.target).table.entries
    samples = []
    for t in t_samples:
        t = complex(t)
        deviation, dens = 0.0, {}
        for key in constants.keys() | target.keys():
            num, den = constants.get(key, (POLY_ZERO, POLY_ONE))
            shift = min(num.order, den.order)
            if (id(den), shift) not in dens:
                dens[id(den), shift] = _scaled_at(den, shift, t)
            (n, e), (d, f) = _scaled_at(num, shift, t), dens[id(den), shift]
            try:
                value = _ldexp(n / d, e - f)
            except (OverflowError, ZeroDivisionError):
                value = complex(inf)
            wanted = target[key].eval_complex() if key in target else 0j
            deviation = max(deviation, abs(value - wanted))
        samples.append(NumericSample(abs(t), deviation))
    return samples


def _scaled_at(poly, shift, t):
    """The polynomial divided by t^shift, a power of t that divides it, at t
    as (m, e), the value m 2^e with max(|Re m|, |Im m|) in [1/2, 1) or
    m = 0, by Horner's rule on such pairs.  No float overflows, and one
    underflows only in a term 2^-1074 below the running sum; in the float
    range the value is that of Horner's rule in floats, bit for bit, as an
    int quotient is correctly rounded whatever the common factors of the
    coefficient (a + b i)/d read off the polynomial's int lists."""
    m, e, d = 0j, 0, poly.d
    for a, b in reversed(list(zip_longest(poly.re[shift:], poly.im[shift:],
                                          fillvalue=0))):
        m *= t
        if a or b:
            # (a + b i)/d as k 2^f with |k| < 2, by exact shifts of ints
            f = max(a.bit_length(), b.bit_length()) - d.bit_length()
            a, b, c = (a, b, d << f) if f >= 0 else (a << -f, b << -f, d)
            top = max(e, f) if m else f
            m, e = _ldexp(m, e - top) + _ldexp(complex(a / c, b / c), f - top), top
        if m:
            k = frexp(max(abs(m.real), abs(m.imag)))[1]
            m, e = _ldexp(m, -k), e + k
    return m, e


def _ldexp(z, k):
    return complex(ldexp(z.real, k), ldexp(z.imag, k))
