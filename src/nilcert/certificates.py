"""Non-degeneration certificates: closed sets, probes, and escape evidence.

A closed set R is a conjunction of conditions on structure constants in the
current basis: flag-product containments A_p A_q <= A_r (the flag tails are
A_p = <e_p, ..., e_n>), power vanishings A_p^k = 0, polynomial equations in
the c(i,j,k), and annihilator-dimension lower bounds.  Powers are read from
algebra.power_chain; polynomial conditions arrive in the monomial normal
form of parser.parse_condition.

The toolkit deliberately distinguishes two escape outcomes for a target:

* CERTIFIED  -- a basis-independent invariant (annihilator dimension, or a
  whole-algebra power) already contradicts membership in R in every basis;
* EVIDENTIAL -- a randomized search over bases found no membership; this is
  evidence, not proof, and is labelled as such.

Stability of R under the flag-preserving (Borel) subgroup is probed with
random flag-preserving basis changes rather than proven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import catalog
from .algebra import (StructureTable, annihilator, flag_subspace,
                      power_chain, subspace_product)
from .sampling import random_borel_matrix, random_invertible
from .scalars import GR_ZERO, GaussianRational

CERTIFIED = "CERTIFIED"
EVIDENTIAL = "EVIDENTIAL"
REFUTED = "REFUTED"


# -- closed-set conditions (1-based indices, as printed and parsed) ------------------


@dataclass(frozen=True)
class FlagContainment:
    """A_p A_q <= A_r; r = None encodes containment in the zero subspace."""

    p: int
    q: int
    r: int | None

    def describe(self):
        if self.r is None:
            return f"A_{self.p} A_{self.q} = 0"
        return f"A_{self.p} A_{self.q} <= A_{self.r}"


@dataclass(frozen=True)
class PowerVanish:
    """A_p^k = 0: all k-fold products of elements of the flag tail vanish."""

    p: int
    k: int

    def describe(self):
        return f"A_{self.p}^{self.k} = 0"


@dataclass(frozen=True)
class PolynomialEq:
    """poly(c(i,j,k)) = 0; carries the monomial normal form of
    parser.parse_condition and the source text."""

    terms: tuple
    text: str

    def describe(self):
        return f"{self.text} = 0"

    def value(self, alg: StructureTable) -> GaussianRational:
        """The polynomial evaluated at the structure constants of ``alg``."""
        total = GR_ZERO
        for monomial, coeff in self.terms:
            for index in monomial:
                coeff = coeff * alg.entry(*index)
            total = total + coeff
        return total


@dataclass(frozen=True)
class AnnDimAtLeast:
    d: int

    def describe(self):
        return f"dim Ann >= {self.d}"


@dataclass(frozen=True)
class ClosedSetSpec:
    conjuncts: tuple

    def describe(self):
        return [c.describe() for c in self.conjuncts]


@dataclass(frozen=True)
class NonDegenerationClaim:
    """sources satisfy spec (after their witness basis change, if present);
    the claim is that no target satisfies it in any basis."""

    sources: tuple
    targets: tuple
    spec: ClosedSetSpec
    witness_bases: dict = field(default_factory=dict, hash=False, compare=False)

    def describe(self):
        return (f"{' '.join(self.sources)} !-> {' '.join(self.targets)} via "
                f"{{{', '.join(self.spec.describe())}}}")


# -- conjunct evaluation ------------------------------------------------------------------


def conjunct_holds(conj, alg: StructureTable) -> bool:
    """Evaluate one condition through the subspace machinery."""
    n = alg.dim
    if isinstance(conj, FlagContainment):
        prod = subspace_product(alg, flag_subspace(n, conj.p, alg.field),
                                flag_subspace(n, conj.q, alg.field))
        target = flag_subspace(n, conj.r if conj.r is not None else n + 1, alg.field)
        return target.contains_subspace(prod)
    if isinstance(conj, PowerVanish):
        base = flag_subspace(n, conj.p, alg.field)
        return power_chain(alg, conj.k, base)[conj.k].is_zero
    if isinstance(conj, PolynomialEq):
        return conj.value(alg).is_zero
    if isinstance(conj, AnnDimAtLeast):
        return annihilator(alg).dim >= conj.d
    raise TypeError(f"unknown conjunct {conj!r}")


def conjunct_holds_bruteforce(conj, alg: StructureTable) -> bool:
    """Independent oracle: the defining c(i,j,k) equations, checked directly."""
    n = alg.dim
    if isinstance(conj, FlagContainment):
        k_top = (conj.r - 1) if conj.r is not None else n
        for i in range(conj.p - 1, n):
            for j in range(conj.q - 1, n):
                for k in range(min(k_top, n)):
                    if alg.entry(i, j, k):
                        return False
        return True
    if isinstance(conj, PowerVanish):
        return not _some_tail_product_nonzero(alg, conj.p, conj.k)
    if isinstance(conj, PolynomialEq):
        return conj.value(alg).is_zero
    if isinstance(conj, AnnDimAtLeast):
        return _annihilator_rank_by_minors(alg) <= n - conj.d
    raise TypeError(f"unknown conjunct {conj!r}")


def _some_tail_product_nonzero(alg, p, k):
    """Enumerate every parenthesization of k-fold tail products."""
    n = alg.dim
    tails = [alg.basis_vector(i) for i in range(p - 1, n)]
    layers = {1: tails}
    for m in range(2, k + 1):
        vectors = []
        for a in range(1, m):
            for u in layers[a]:
                for w in layers[m - a]:
                    vectors.append(alg.multiply(u, w))
        layers[m] = vectors
    return any(any(v) for v in layers[k])


def _annihilator_rank_by_minors(alg):
    """Rank of the two-sided multiplication matrix via exhaustive minors."""
    n = alg.dim
    columns = []
    for j in range(n):
        for k in range(n):
            left = tuple(alg.entry(i, j, k) for i in range(n))
            right = tuple(alg.entry(j, i, k) for i in range(n))
            for col in (left, right):
                if any(col) and col not in columns:
                    columns.append(col)
    if not columns:
        return 0
    rank = 0
    for m in range(1, min(n, len(columns)) + 1):
        found = False
        for row_idx in combinations(range(n), m):
            for col_idx in combinations(range(len(columns)), m):
                minor = [[columns[c][r] for c in col_idx] for r in row_idx]
                if _laplace_det(minor):
                    found = True
                    break
            if found:
                break
        if found:
            rank = m
        else:
            break
    return rank


def _laplace_det(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    total = GR_ZERO
    for col, head in enumerate(matrix[0]):
        if not head:
            continue
        sub = [[row[c] for c in range(len(row)) if c != col] for row in matrix[1:]]
        term = head * _laplace_det(sub)
        total = total + term if col % 2 == 0 else total - term
    return total


# -- membership, probes, escapes --------------------------------------------------------------


def satisfies(spec: ClosedSetSpec, alg: StructureTable) -> bool:
    return all(conjunct_holds(c, alg) for c in spec.conjuncts)


def satisfies_with_witness(alg: StructureTable, spec: ClosedSetSpec,
                           witness_basis) -> bool:
    """Membership after an explicit constant basis change."""
    return satisfies(spec, alg.change_basis(witness_basis))


def borel_stability_probe(spec: ClosedSetSpec, alg: StructureTable,
                          samples: int, rng):
    """Search for a flag-preserving basis change that exits the set.

    Requires satisfies(spec, alg); returns the first violating matrix or None.
    """
    if not satisfies(spec, alg):
        raise ValueError("algebra does not satisfy the spec in the given basis")
    for _ in range(samples):
        g = random_borel_matrix(rng, alg.dim)
        if not satisfies(spec, alg.change_basis(g)):
            return g
    return None


@dataclass
class EscapeReport:
    status: str                 # CERTIFIED, EVIDENTIAL or REFUTED
    certificate: str | None
    random_hits: int
    samples: int
    hit_example: list | None = None

    @property
    def escaped(self):
        return self.status in (CERTIFIED, EVIDENTIAL) and self.random_hits == 0


def _whole_power_conditions(spec: ClosedSetSpec):
    """k values for which the spec forces A^k = 0 (basis independent)."""
    ks = []
    for conj in spec.conjuncts:
        if isinstance(conj, PowerVanish) and conj.p == 1:
            ks.append(conj.k)
        if isinstance(conj, FlagContainment) and conj.p == conj.q == 1 \
                and conj.r is None:
            ks.append(2)
    return ks


def escape_evidence(spec: ClosedSetSpec, target: StructureTable,
                    samples: int, rng) -> EscapeReport:
    """Certified escape from basis-independent invariants, else random search.

    random_hits > 0 refutes the claim; random_hits = 0 after the full sample
    budget is evidence only and is labelled EVIDENTIAL, not a proof.
    """
    for conj in spec.conjuncts:
        if isinstance(conj, AnnDimAtLeast):
            ann = annihilator(target).dim
            if ann < conj.d:
                return EscapeReport(
                    CERTIFIED,
                    f"dim Ann = {ann} < {conj.d} in every basis", 0, 0)
    for k in _whole_power_conditions(spec):
        power = power_chain(target, k)[k]
        if not power.is_zero:
            return EscapeReport(
                CERTIFIED,
                f"A^{k} has dimension {power.dim} != 0 in every basis", 0, 0)
    hits = 0
    example = None
    for _ in range(samples):
        g = random_invertible(rng, target.dim)
        if satisfies(spec, target.change_basis(g)):
            hits += 1
            if example is None:
                example = g
    status = REFUTED if hits else EVIDENTIAL
    return EscapeReport(status, None, hits, samples,
                        [[repr(c) for c in row] for row in example] if example else None)


# -- degeneration screening battery --------------------------------------------------------------------


@dataclass(frozen=True)
class ScreeningReport:
    source: str
    target: str
    trivial: bool
    der_dim_increases: bool  # also the orbit test: dim orbit = n^2 - dim Der
    power_dims_non_increase: bool
    ann_dim_non_decreases: bool

    @property
    def all_pass(self) -> bool:
        if self.trivial:
            return True
        return (self.der_dim_increases and self.power_dims_non_increase
                and self.ann_dim_non_decreases)

    def failures(self):
        if self.trivial:
            return []
        out = []
        if not self.der_dim_increases:
            out.append("dim Der does not strictly increase")
        if not self.power_dims_non_increase:
            out.append("some dim A^k increases")
        if not self.ann_dim_non_decreases:
            out.append("dim Ann decreases")
        return out


def necessary_conditions(source: str, target: str) -> ScreeningReport:
    """Semicontinuity screen for 'source degenerates to target'."""
    fp_s = catalog.catalog_fingerprint(source)
    fp_t = catalog.catalog_fingerprint(target)
    return ScreeningReport(
        source=source,
        target=target,
        trivial=source == target,
        der_dim_increases=fp_s.dim_der < fp_t.dim_der,
        power_dims_non_increase=all(a >= b for a, b in
                                    zip(fp_s.power_dims, fp_t.power_dims)),
        ann_dim_non_decreases=fp_s.ann_dim <= fp_t.ann_dim,
    )


# -- whole-claim checking -----------------------------------------------------------------------------------


@dataclass
class SourceCheck:
    name: str
    used_witness: bool
    satisfied: bool
    borel_violation: list | None


@dataclass
class ClaimOutcome:
    claim: NonDegenerationClaim
    source_checks: list
    escapes: dict  # target name -> EscapeReport

    @property
    def valid(self) -> bool:
        sources_ok = all(s.satisfied and s.borel_violation is None
                         for s in self.source_checks)
        targets_ok = all(e.escaped for e in self.escapes.values())
        return sources_ok and targets_ok


def check_claim(claim: NonDegenerationClaim, escape_samples: int,
                borel_samples: int, rng) -> ClaimOutcome:
    source_checks = []
    for name in claim.sources:
        table = catalog.get(name).table
        witness = claim.witness_bases.get(name)
        if witness is not None:
            table = table.change_basis(witness)
        ok = satisfies(claim.spec, table)
        violation = None
        if ok and borel_samples:
            g = borel_stability_probe(claim.spec, table, borel_samples, rng)
            if g is not None:
                violation = [[repr(c) for c in row] for row in g]
        source_checks.append(SourceCheck(name, witness is not None, ok, violation))
    escapes = {}
    for name in claim.targets:
        escapes[name] = escape_evidence(claim.spec, catalog.get(name).table,
                                        escape_samples, rng)
    return ClaimOutcome(claim, source_checks, escapes)


# -- non-degeneration coverage of the whole order ----------------------------------------------------------------


def screening_completeness(closure, claim_pairs):
    """Explain every ordered no-path pair by invariants or certificates.

    closure: set of (source, target) pairs reachable in the verified graph.
    claim_pairs: (s, t) pairs from valid non-degeneration claims.  A pair
    (X, Y) outside the closure is explained when the invariant screen fails,
    or when some claim (s, t) has s reaching X and t reachable from Y (then
    X -> Y would imply the refuted s -> t by transitivity).
    """
    names = catalog.names()
    explained = {}
    unexplained = []
    for x in names:
        for y in names:
            if x == y or (x, y) in closure:
                continue
            reasons = []
            screen = necessary_conditions(x, y)
            if not screen.all_pass:
                reasons.extend(screen.failures())
            for (s, t) in claim_pairs:
                reaches_source = s == x or (s, x) in closure
                target_reaches = t == y or (y, t) in closure
                if reaches_source and target_reaches:
                    reasons.append(f"certificate {s} !-> {t}")
            if reasons:
                explained[(x, y)] = reasons
            else:
                unexplained.append((x, y))
    return {"explained": explained, "unexplained": unexplained}
