"""Non-degeneration certificates: closed sets, probes, and escape evidence.

A closed set R is a conjunction of conditions on structure constants in the
current basis: flag-product containments A_p A_q <= A_r (the flag tails are
A_p = <e_p, ..., e_n>), power vanishings A_p^k = 0, polynomial equations in
the c(i,j,k), and annihilator-dimension lower bounds.  Powers are read from
algebra.power_chain; polynomial conditions arrive in the monomial normal
form of parser.parse_condition.  A sampled basis is read as an
algebra.BasisChange, without dim Ann >= d and A^k = 0: these hold in every
basis or in none, and are checked once.

The toolkit deliberately distinguishes two escape outcomes for a target:

* CERTIFIED  -- a basis-independent invariant contradicts the degeneration:
  R's own annihilator bound or whole-algebra power fails for the target in
  every basis, or else the pair screen (necessary_conditions) fails for the
  target against every source of the row, so R is not needed;
* EVIDENTIAL -- a randomized search over bases found no membership; this is
  evidence, not proof, and is labelled as such.

The pair screen reads one table of semicontinuous invariants, INVARIANTS:
along a degeneration dim Der must strictly grow, each dim A^k may only drop
and dim Ann may only grow.  check_claim searches only the targets left
without a certificate.  Stability of R under the flag-preserving (Borel)
subgroup is probed with random flag-preserving basis changes rather than
proven, and only for rows with a target left to the search and a polynomial
equation: such a change maps each flag tail onto itself, so it keeps every
other kind of condition.  Other rows draw no samples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from . import catalog
from .algebra import (BasisChange, StructureTable, annihilator, flag_subspace,
                      power_chain)
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

    def value(self, alg: StructureTable | BasisChange) -> GaussianRational:
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


def conjunct_holds(conj, alg: StructureTable | BasisChange) -> bool:
    """Evaluate one condition on a table, or on a basis change of one.

    A_p A_q <= A_r fails iff some nonzero c(i,j,k) has i >= p, j >= q and
    k < r (1-based; every k when r is None): the flag tails are spanned by
    basis vectors, so their product is spanned by the e_i e_j it contains.
    A_p^2 = 0 is A_p A_p = 0.  Only other powers and the annihilator read
    the whole table of a BasisChange.
    """
    n = alg.dim
    if isinstance(conj, FlagContainment):
        p, q = conj.p - 1, conj.q - 1
        r = conj.r - 1 if conj.r is not None else n
        return not any(alg.entry(i, j, k) for i in range(p, n)
                       for j in range(q, n) for k in range(r))
    if isinstance(conj, PolynomialEq):
        return conj.value(alg).is_zero
    if isinstance(conj, PowerVanish) and conj.k == 2:
        return conjunct_holds(FlagContainment(conj.p, conj.p, None), alg)
    table = alg.table() if isinstance(alg, BasisChange) else alg
    if isinstance(conj, PowerVanish):
        base = flag_subspace(n, conj.p)
        return power_chain(table, conj.k, base)[conj.k].is_zero
    if isinstance(conj, AnnDimAtLeast):
        return annihilator(table).dim >= conj.d
    raise TypeError(f"unknown conjunct {conj!r}")


# -- membership, probes, escapes --------------------------------------------------------------


def satisfies(spec: ClosedSetSpec, alg: StructureTable | BasisChange) -> bool:
    return all(conjunct_holds(c, alg) for c in spec.conjuncts)


def _whole_power(conj):
    """k when the condition says A^k = 0, else None."""
    if isinstance(conj, PowerVanish) and conj.p == 1:
        return conj.k
    if conj == FlagContainment(1, 1, None):
        return 2
    return None


def _basis_dependent(spec: ClosedSetSpec) -> ClosedSetSpec:
    """The spec less dim Ann >= d and A^k = 0, which no basis change alters."""
    return ClosedSetSpec(tuple(
        c for c in spec.conjuncts
        if not isinstance(c, AnnDimAtLeast) and _whole_power(c) is None))


def _polynomial(spec: ClosedSetSpec) -> ClosedSetSpec:
    """The spec's polynomial equations, the only conditions that a
    flag-preserving basis change, which maps each A_p onto itself, alters."""
    return ClosedSetSpec(tuple(
        c for c in spec.conjuncts if isinstance(c, PolynomialEq)))


def borel_stability_probe(spec: ClosedSetSpec, alg: StructureTable,
                          samples: int, rng):
    """Search for a flag-preserving basis change that exits the set.

    Requires satisfies(spec, alg); returns the first violating matrix or None.
    Each sample checks the polynomial equations only (``_polynomial``).
    """
    if not satisfies(spec, alg):
        raise ValueError("algebra does not satisfy the spec in the given basis")
    per_sample = _polynomial(spec)
    for _ in range(samples if per_sample.conjuncts else 0):
        g = random_borel_matrix(rng, alg.dim)
        if not satisfies(per_sample, BasisChange(alg, g)):
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


def certified_escape(spec: ClosedSetSpec, target: StructureTable,
                     screens=()) -> EscapeReport | None:
    """A proof that the target escapes, or None.

    R's own basis-independent conditions come first.  Then the screens,
    necessary_conditions(source, target) for each source of the row: a
    target that fails all of them is a degeneration of no source, whatever
    R says.
    """
    for conj in spec.conjuncts:
        if isinstance(conj, AnnDimAtLeast):
            ann = annihilator(target).dim
            if ann < conj.d:
                return EscapeReport(
                    CERTIFIED,
                    f"dim Ann = {ann} < {conj.d} in every basis", 0, 0)
    for k in filter(None, map(_whole_power, spec.conjuncts)):
        power = power_chain(target, k)[k]
        if not power.is_zero:
            return EscapeReport(
                CERTIFIED,
                f"A^{k} has dimension {power.dim} != 0 in every basis", 0, 0)
    if screens and not any(screen.all_pass for screen in screens):
        broken = "; ".join(f"{screen.source} -> {screen.target} "
                           f"{', '.join(screen.evidence())}"
                           for screen in screens)
        return EscapeReport(
            CERTIFIED, f"pair screen, R not needed: {broken}", 0, 0)
    return None


def random_escape(spec: ClosedSetSpec, target: StructureTable,
                  samples: int, rng) -> EscapeReport:
    """Random search for a basis in which the target satisfies R.

    random_hits > 0 refutes the claim; random_hits = 0 after the full sample
    budget is evidence only and is labelled EVIDENTIAL, not a proof.
    """
    per_sample = _basis_dependent(spec)
    hits = 0
    example = None
    for _ in range(samples):
        g = random_invertible(rng, target.dim)
        if satisfies(per_sample, BasisChange(target, g)):
            hits += 1
            if example is None:
                example = g
    status = REFUTED if hits else EVIDENTIAL
    return EscapeReport(status, None, hits, samples,
                        [[repr(c) for c in row] for row in example] if example else None)


def escape_evidence(spec: ClosedSetSpec, target: StructureTable,
                    samples: int, rng) -> EscapeReport:
    """Certified escape from R's basis-independent conditions, else random
    search."""
    return certified_escape(spec, target) or random_escape(spec, target,
                                                           samples, rng)


# -- degeneration screening battery --------------------------------------------------------------------


MAY_GROW, MAY_DROP, MUST_GROW = operator.le, operator.ge, operator.lt


@dataclass(frozen=True)
class Invariant:
    """One entry of the pair screen.  A tuple value is compared componentwise
    and evidence is formatted for each component that breaks the direction,
    with its values a and b and k = 2 + its index (A^k in power_dims)."""

    name: str
    value: Callable  # catalog.InvariantFingerprint -> int or tuple
    direction: Callable  # MAY_GROW, MAY_DROP or MUST_GROW
    failure: str
    evidence: str

    def holds(self, a, b):
        """Whether a source value a and a target value b obey the direction."""
        return all(map(self.direction, a, b)) if isinstance(a, tuple) \
            else self.direction(a, b)

    def broken(self, a, b):
        """(k, a_k, b_k) for each component that moves against the direction."""
        pairs = zip(a, b) if isinstance(a, tuple) else [(a, b)]
        return [(k, x, y) for k, (x, y) in enumerate(pairs, 2)
                if not self.direction(x, y)]


INVARIANTS = (
    Invariant("dim Der", operator.attrgetter("dim_der"), MUST_GROW,
              "dim Der does not strictly increase",
              "does not raise dim Der ({a} -> {b})"),
    Invariant("dim A^k", operator.attrgetter("power_dims"), MAY_DROP,
              "some dim A^k increases", "raises dim A^{k} from {a} to {b}"),
    Invariant("dim Ann", operator.attrgetter("ann_dim"), MAY_GROW,
              "dim Ann decreases", "lowers dim Ann from {a} to {b}"),
)
"""The invariants a degeneration source -> target can move only one way.

Soundness: for a matrix M(mu) polynomial in the structure constants whose
rank does not depend on the basis, {mu : rank M(mu) <= r} is cut out by the
(r+1)-minors, so it is closed and GL-stable, and a rank can only drop along
a degeneration (as in Burde and Steinhoff, J. Algebra 214, 1999).  dim A^k
is such a rank; dim Ann and dim Der are kernel dimensions of such matrices,
so they can only grow.  dim Der grows strictly on a proper degeneration:
the orbit of mu has dimension n^2 - dim Der, and the boundary of its
closure is a union of orbits of smaller dimension.
"""


@dataclass(frozen=True)
class ScreeningReport:
    source: str
    target: str
    failed: tuple  # (invariant, source value, target value) per broken entry

    @property
    def all_pass(self) -> bool:
        return not self.failed

    def failures(self):
        return [entry.failure for entry, _, _ in self.failed]

    def evidence(self):
        """The failures with the values of both catalog algebras."""
        return [entry.evidence.format(k=k, a=a, b=b)
                for entry, s, t in self.failed for k, a, b in entry.broken(s, t)]


def necessary_conditions(source: str, target: str) -> ScreeningReport:
    """Semicontinuity screen for 'source degenerates to target'."""
    failed = []
    if source != target:
        fp_s, fp_t = map(catalog.catalog_fingerprint, (source, target))
        for entry in INVARIANTS:
            a, b = entry.value(fp_s), entry.value(fp_t)
            if not entry.holds(a, b):
                failed.append((entry, a, b))
    return ScreeningReport(source, target, tuple(failed))


# -- whole-claim checking -----------------------------------------------------------------------------------


@dataclass
class SourceCheck:
    name: str
    used_witness: bool
    satisfied: bool
    borel_violation: list | None
    borel_samples: int  # the probe's sample count; 0 when no probe ran


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
    """Sources in R, then escapes: certificates first, the search for the
    targets left.

    R is needed only for the searched targets, so the Borel probe runs only
    when one is left (a certificate from R's own dim Ann >= d or A^k = 0 is
    also a failed pair screen, as these are closed and basis-free) and R has
    a polynomial equation, the only kind of condition a flag-preserving
    basis change can alter.  The probes draw before the searches, and the
    searches go in target order.
    """
    escapes = {name: certified_escape(
                   claim.spec, catalog.get(name).table,
                   [necessary_conditions(s, name) for s in claim.sources])
               for name in claim.targets}
    searched = [name for name, e in escapes.items() if e is None]
    probed = searched and _polynomial(claim.spec).conjuncts
    probe_samples = borel_samples if probed else 0
    source_checks = []
    for name in claim.sources:
        table = catalog.get(name).table
        witness = claim.witness_bases.get(name)
        if witness is not None:
            table = table.change_basis(witness)
        ok = satisfies(claim.spec, table)
        violation = None
        drawn = probe_samples if ok else 0
        if drawn:
            g = borel_stability_probe(claim.spec, table, drawn, rng)
            if g is not None:
                violation = [[repr(c) for c in row] for row in g]
        source_checks.append(SourceCheck(name, witness is not None, ok,
                                         violation, drawn))
    for name in searched:
        escapes[name] = random_escape(claim.spec, catalog.get(name).table,
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
            reasons = necessary_conditions(x, y).failures()
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
