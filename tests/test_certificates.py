"""Closed-set certificates: membership, witnesses, probes, escapes, and the
screening battery, with oracle equivalence against the raw defining equations."""

import operator
import random
import sys
from itertools import permutations

import pytest

from nilcert import catalog, certificates, files
from nilcert.algebra import BasisChange, StructureTable
from nilcert.certificates import (INVARIANTS, MUST_GROW, AnnDimAtLeast,
                                  ClosedSetSpec, FlagContainment,
                                  PolynomialEq, PowerVanish,
                                  borel_stability_probe, check_claim,
                                  conjunct_holds, escape_evidence,
                                  necessary_conditions, satisfies,
                                  screening_completeness)
from nilcert.parser import parse_condition, parse_constants
from nilcert.sampling import (derive_rng, random_borel_matrix,
                              random_invertible)
from nilcert.scalars import GaussianRational
from oracles import conjunct_holds_bruteforce, random_sparse_table

R_A03 = ClosedSetSpec((PowerVanish(1, 4), PowerVanish(3, 2),
                       FlagContainment(1, 3, 5)))
R_A13 = ClosedSetSpec((FlagContainment(1, 1, 4), FlagContainment(1, 2, 5)))


def test_a03_satisfies_its_closed_set():
    assert satisfies(R_A03, catalog.get("A_03").table)


def test_a05_fails_the_same_set():
    assert not satisfies(R_A03, catalog.get("A_05").table)  # A^4 = <e_4> != 0


def test_zero_algebra_satisfies_vanishing_specs():
    zero = StructureTable.zero_algebra(5)
    assert satisfies(R_A03, zero)
    assert satisfies(R_A13, zero)


def test_a13_needs_its_witness_basis():
    table = catalog.get("A_13").table
    witness = files.load_shipped_claims()
    claim = next(c for c in witness if c.sources == ("A_13",))
    basis = claim.witness_bases["A_13"]
    assert satisfies(R_A13, table.change_basis(basis))
    assert not satisfies(R_A13, table)  # identity basis fails A_1 A_2 <= A_5


def permutation_basis(order):
    """The basis (e_{order[0]+1}, ..., e_{order[-1]+1})."""
    return [[GaussianRational(1 if j == k else 0) for j in range(len(order))]
            for k in order]


def test_a05_row_holds_for_a15_in_a_permuted_basis():
    # A data-level finding, not a defect of the checker: in the basis
    # (e_1, e_4, e_3, e_2, e_5) the only products of A_15 are E_1 E_4 = E_3
    # and E_2 E_2 = E_5, which satisfy both conditions of the A_05 row as
    # first shipped.  So that row did not separate A_05 from A_15.
    claim, = files.load_claims(
        "claim A_05 !-> A_15\nrequire A_2 A_3 = 0\n"
        "require poly c(1,3,4)*c(2,2,5) - c(1,3,5)*c(2,2,4) = 0\n")
    moved = catalog.get("A_15").table.change_basis(
        permutation_basis((0, 3, 2, 1, 4)))
    assert satisfies(claim.spec, moved)
    assert all(conjunct_holds_bruteforce(c, moved) for c in claim.spec.conjuncts)


def test_shipped_a05_row_holds_for_no_permuted_a15_or_a09():
    # the repaired row adds A_1 A_3 <= A_4, A_1 A_4 = 0 and A_2 A_2 <= A_4;
    # A_05 still satisfies it in its catalog basis
    claim = next(c for c in files.load_shipped_claims()
                 if c.sources == ("A_05",))
    assert claim.targets == ("A_15",)
    assert satisfies(claim.spec, catalog.get("A_05").table)
    for name in ("A_15", "A_09"):
        table = catalog.get(name).table
        assert not any(
            satisfies(claim.spec, table.change_basis(permutation_basis(order)))
            for order in permutations(range(5))), name


def test_flag_containment_is_read_off_the_nonzero_entries():
    # A_02: e_1 e_1 = e_3, e_1 e_3 = e_4, e_1 e_4 = e_5, e_2 e_2 = e_3 e_3 = e_5
    table = catalog.get("A_02").table
    for conj, want in ((FlagContainment(1, 1, 3), True),
                       (FlagContainment(1, 1, 4), False),   # e_1 e_1 = e_3
                       (FlagContainment(2, 2, 5), True),
                       (FlagContainment(2, 3, None), False),  # e_3 e_3 = e_5
                       (FlagContainment(2, 4, None), True),
                       (FlagContainment(1, 5, None), True)):
        assert conjunct_holds(conj, table) is want, conj
        assert conjunct_holds_bruteforce(conj, table) is want, conj


def test_identity_witness_equals_plain_satisfies():
    table = catalog.get("A_03").table
    eye = [[GaussianRational(1 if i == j else 0) for j in range(5)]
           for i in range(5)]
    assert satisfies(R_A03, table.change_basis(eye)) == satisfies(R_A03, table)


# -- Borel probes ---------------------------------------------------------------


def test_borel_probe_requires_membership():
    wrong = ClosedSetSpec((PolynomialEq(parse_condition("c(1,1,2)"), "c(1,1,2)"),))
    with pytest.raises(ValueError):
        borel_stability_probe(wrong, catalog.get("A_24").table, 10,
                              derive_rng(0, "probe"))


def test_borel_probe_finds_no_violation_on_shipped_rows():
    rng = derive_rng(29, "borel-smoke")
    for claim in files.load_shipped_claims():
        for name in claim.sources:
            table = catalog.get(name).table
            basis = claim.witness_bases.get(name)
            if basis is not None:
                table = table.change_basis(basis)
            assert borel_stability_probe(claim.spec, table, 25, rng) is None


def test_a_row_with_no_basis_dependent_condition_draws_no_borel_samples(
        monkeypatch):
    # A^6 = 0 holds in every basis or in none, so a flag-preserving change
    # has nothing to check: the probe draws nothing, the source records 0
    # Borel samples and the search of A_24 starts from the untouched stream
    claim, = files.load_claims("claim A_01 !-> A_24\nrequire A_1^6 = 0\n")
    rng = derive_rng(0, "basis-free")
    state = rng.getstate()
    assert borel_stability_probe(claim.spec, catalog.get("A_01").table, 5,
                                 rng) is None
    assert rng.getstate() == state
    at_search = []

    def recorded(spec, target, samples, rng):
        at_search.append(rng.getstate())
        return search(spec, target, samples, rng)

    search = certificates.random_escape
    monkeypatch.setattr(certificates, "random_escape", recorded)
    outcome = check_claim(claim, 3, 2, rng)
    assert [(s.name, s.satisfied, s.borel_samples)
            for s in outcome.source_checks] == [("A_01", True, 0)]
    assert at_search == [state]
    assert outcome.escapes["A_24"].status == "REFUTED"


def test_borel_probe_reports_a_violating_matrix_when_unstable():
    # c(1,1,3) = 0 holds for the algebra with e_1^2 = e_2 in its own basis,
    # but f_1^2 picks up an f_3 component as soon as f_2 mixes e_2 and e_3,
    # so the set is not stable under flag-preserving changes
    spec = ClosedSetSpec((PolynomialEq(parse_condition("c(1,1,3)"), "c(1,1,3)"),))
    table = catalog.get("A_24").table
    assert satisfies(spec, table)
    rng = derive_rng(31, "borel-unstable")
    g = borel_stability_probe(spec, table, 400, rng)
    assert g is not None
    assert not satisfies(spec, table.change_basis(g))


# -- escapes ----------------------------------------------------------------------


def test_certified_escape_by_annihilator():
    spec = ClosedSetSpec((AnnDimAtLeast(2),))
    report = escape_evidence(spec, catalog.get("A_21").table, 10,
                             derive_rng(0, "ann"))
    assert report.status == "CERTIFIED"
    assert "dim Ann = 1" in report.certificate


def test_certified_escape_by_whole_power():
    spec = ClosedSetSpec((PowerVanish(1, 4),))
    report = escape_evidence(spec, catalog.get("A_05").table, 10,
                             derive_rng(0, "pow"))
    assert report.status == "CERTIFIED"
    assert "A^4" in report.certificate


def test_refutation_path_on_the_zero_algebra():
    spec = ClosedSetSpec((PowerVanish(3, 2),))
    report = escape_evidence(spec, StructureTable.zero_algebra(5), 5,
                             derive_rng(0, "refute"))
    assert report.status == "REFUTED"
    assert report.random_hits == 5
    assert report.hit_example is not None


def parsed_basis(rows):
    """A printed basis matrix, each entry read back by the constant grammar."""
    return [parse_constants(" + ".join(f"{c}*e_{j + 1}" for j, c in enumerate(row)))
            for row in rows]


def test_a_refutation_names_a_basis_that_satisfies_the_spec():
    # every basis of the zero algebra lies in the first set; a basis of A_24
    # (e_1 e_1 = e_2) lies in the second exactly when f_5 has no e_1 part
    c112 = PolynomialEq(parse_condition("c(1,1,2)"), "c(1,1,2)")
    c551 = PolynomialEq(parse_condition("c(5,5,1)"), "c(5,5,1)")
    cases = (
        (ClosedSetSpec((FlagContainment(1, 2, 4), c112, PowerVanish(3, 2))),
         StructureTable.zero_algebra(5), 6, {6}),
        (ClosedSetSpec((FlagContainment(5, 5, None), c551, PowerVanish(5, 2))),
         catalog.get("A_24").table, 80, range(1, 80)),
    )
    for spec, target, samples, hits in cases:
        report = escape_evidence(spec, target, samples,
                                 derive_rng(0, "refute-real"))
        assert report.status == "REFUTED"
        assert report.random_hits in hits
        example = parsed_basis(report.hit_example)
        assert satisfies(spec, target.change_basis(example))


def test_evidential_escape_counts_zero_hits():
    spec = ClosedSetSpec((PowerVanish(2, 2),))
    report = escape_evidence(spec, catalog.get("A_19").table, 40,
                             derive_rng(0, "evid"))
    assert report.status == "EVIDENTIAL"
    assert report.random_hits == 0 and report.samples == 40


# -- screening battery -------------------------------------------------------------


def test_screening_passes_along_a_real_edge():
    assert necessary_conditions("A_01", "A_02").all_pass


def test_screening_rejects_the_reverse_direction():
    report = necessary_conditions("A_24", "A_01")
    assert not report.all_pass
    assert "dim Der does not strictly increase" in report.failures()


def test_screening_waives_strictness_for_the_trivial_pair():
    report = necessary_conditions("A_13", "A_13")
    assert report.all_pass and report.failed == ()


def test_each_screen_entry_prints_its_failure_and_its_values():
    cases = {
        ("A_02", "A_03"): (["dim Der does not strictly increase"],
                           ["does not raise dim Der (6 -> 6)"]),
        ("A_03", "A_05"): (["some dim A^k increases"],
                           ["raises dim A^3 from 1 to 2",
                            "raises dim A^4 from 0 to 1"]),
        ("A_05", "A_13"): (["dim Ann decreases"],
                           ["lowers dim Ann from 2 to 1"]),
    }
    for (source, target), (failures, evidence) in cases.items():
        report = necessary_conditions(source, target)
        assert report.failures() == failures, (source, target)
        assert report.evidence() == evidence, (source, target)


def test_an_invariant_added_to_the_table_reaches_the_whole_screen(monkeypatch):
    # A^k = 0 is closed, so the nilpotency index can only drop; the entry
    # alone makes the screen, its failures and its evidence read it
    nilpotency = certificates.Invariant(
        "nilpotency index", operator.attrgetter("nilpotency_index"),
        certificates.MAY_DROP, "the nilpotency index increases",
        "raises the nilpotency index from {a} to {b}")
    monkeypatch.setattr(certificates, "INVARIANTS", INVARIANTS + (nilpotency,))
    report = necessary_conditions("A_03", "A_05")
    assert report.failed[-1] == (nilpotency, 4, 5)
    assert report.failures() == ["some dim A^k increases",
                                 "the nilpotency index increases"]
    assert report.evidence() == ["raises dim A^3 from 1 to 2",
                                 "raises dim A^4 from 0 to 1",
                                 "raises the nilpotency index from 4 to 5"]
    assert necessary_conditions("A_05", "A_03").failed[-1][0] is not nilpotency


def weighted_limit(table, order, weights):
    """The limit at t -> 0 of the table in the basis E_a = t^(w_a) e_(P a),
    P = order and w = weights, or None when it has a pole there.

    E_a E_b = sum_c mu(P a, P b, P c) t^(w_a + w_b - w_c) E_c, so the limit
    exists when every nonzero constant has w_a + w_b >= w_c and keeps those
    with equality; it is a degeneration of the table."""
    position = {p: a for a, p in enumerate(order)}
    entries = {}
    for (i, j, k), c in table.entries.items():
        a, b, m = position[i], position[j], position[k]
        excess = weights[a] + weights[b] - weights[m]
        if excess < 0:
            return None
        if excess == 0:
            entries[(a, b, m)] = c
    return StructureTable(table.dim, entries)


def test_every_invariant_moves_only_in_its_direction_along_weighted_limits():
    # soundness beyond the shipped witnesses: the values are computed on
    # each limit table directly, with no identification
    rng = random.Random(16)
    names = catalog.names()
    moved = dict.fromkeys((entry.name for entry in INVARIANTS), 0)
    kept = 0
    while kept < 300:
        name = rng.choice(names)
        order = rng.sample(range(5), 5)
        weights = [rng.randint(0, 3) for _ in range(5)]
        limit = weighted_limit(catalog.get(name).table, order, weights)
        if limit is None:
            continue
        kept += 1
        source, target = catalog.catalog_fingerprint(name), catalog.fingerprint(limit)
        values = {entry.name: (entry.value(source), entry.value(target))
                  for entry in INVARIANTS}
        changed = {key for key, (a, b) in values.items() if a != b}
        for entry in INVARIANTS:
            a, b = values[entry.name]
            # a strict entry may stay put only on a limit that no other entry
            # tells apart from the source: it may be the source itself
            if entry.direction is MUST_GROW and a == b \
                    and not changed - {entry.name}:
                continue
            assert entry.holds(a, b), (name, order, weights, entry.name)
        for key in changed:
            moved[key] += 1
    assert all(moved.values()), moved


def test_screening_reads_the_cached_catalog_fingerprints(monkeypatch):
    warm = screening_completeness(set(), [])
    calls = {"fingerprint": 0, "derivation_dimension": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(catalog, "fingerprint",
                        counting("fingerprint", catalog.fingerprint))
    monkeypatch.setattr(catalog, "derivation_dimension",
                        counting("derivation_dimension",
                                 catalog.derivation_dimension))
    assert screening_completeness(set(), []) == warm
    assert calls == {"fingerprint": 0, "derivation_dimension": 0}


# -- claim checking -------------------------------------------------------------------


def test_samples_build_no_table_and_no_power_chain(monkeypatch):
    # a sample reads its conditions from the coordinates of one BasisChange;
    # the only table built is the A_13 witness basis, and power_chain runs
    # only for the whole-power certificates (certified_escape, which
    # check_claim asks before any search) and the membership of a source
    bases, chains = [], []
    change_basis, power_chain = StructureTable.change_basis, certificates.power_chain

    def counted_change_basis(self, matrix):
        bases.append(matrix)
        return change_basis(self, matrix)

    def counted_power_chain(alg, up_to, base=None):
        chains.append((sys._getframe(1).f_code.co_name, up_to, base is None))
        return power_chain(alg, up_to, base)

    monkeypatch.setattr(StructureTable, "change_basis", counted_change_basis)
    monkeypatch.setattr(certificates, "power_chain", counted_power_chain)
    claims = files.load_shipped_claims()

    def calls(samples, borel_samples):
        bases.clear()
        chains.clear()
        for index, claim in enumerate(claims):
            check_claim(claim, samples, borel_samples,
                        derive_rng(0, f"count:{index}"))
        return list(bases), list(chains)

    few, more = calls(16, 4), calls(32, 8)
    assert few == more
    witness = next(c for c in claims if c.sources == ("A_13",))
    assert few[0] == [witness.witness_bases["A_13"]]
    assert {(caller, whole) for caller, _, whole in few[1]} == {
        ("certified_escape", True), ("conjunct_holds", False)}


def test_a_target_failing_the_pair_screen_for_every_source_is_not_searched():
    claim, = files.load_claims("claim A_21 !-> A_20\nrequire A_1 A_1 <= A_5\n")
    rng = derive_rng(0, "screened")
    state = rng.getstate()
    outcome = check_claim(claim, 12, 3, rng)
    escape = outcome.escapes["A_20"]
    assert escape.status == "CERTIFIED"
    assert escape.certificate == ("pair screen, R not needed: A_21 -> A_20 "
                                  "raises dim A^2 from 1 to 2")
    assert escape.samples == 0 and escape.random_hits == 0
    assert [s.borel_samples for s in outcome.source_checks] == [0]
    assert outcome.valid and rng.getstate() == state


def test_a_target_passing_the_pair_screen_for_one_source_is_searched():
    # A_21 -> A_20 raises dim A^2, but A_16 -> A_20 passes the screen
    claim, = files.load_claims(
        "claim A_16 A_21 !-> A_20\nrequire A_1 A_1 <= A_5\n")
    assert not necessary_conditions("A_21", "A_20").all_pass
    assert necessary_conditions("A_16", "A_20").all_pass
    outcome = check_claim(claim, 12, 3, derive_rng(0, "mixed"))
    escape = outcome.escapes["A_20"]
    assert escape.status in ("EVIDENTIAL", "REFUTED")
    assert escape.samples == 12 and escape.certificate is None
    # A_16 is not in R in its catalog basis, so only A_21 is probed
    assert [(s.name, s.satisfied, s.borel_samples)
            for s in outcome.source_checks] == [("A_16", False, 0),
                                                ("A_21", True, 3)]


def test_borel_probe_runs_only_for_rows_left_to_the_search(monkeypatch):
    probed = []

    def counted(spec, alg, samples, rng):
        probed.append(samples)
        return probe(spec, alg, samples, rng)

    probe = certificates.borel_stability_probe
    monkeypatch.setattr(certificates, "borel_stability_probe", counted)
    rows = {}
    for index, claim in enumerate(files.load_shipped_claims()):
        probed.clear()
        rng = derive_rng(0, f"rows:{index}")
        state = rng.getstate()
        outcome = check_claim(claim, 16, 4, rng)
        searched = sorted(name for name, e in outcome.escapes.items()
                          if e.status == "EVIDENTIAL")
        rows[claim.sources] = (searched, list(probed))
        assert [s.borel_samples for s in outcome.source_checks] == \
            [4 if searched else 0] * len(claim.sources)
        assert (rng.getstate() == state) is not searched
    assert rows == {
        ("A_03",): (["A_07"], [4]),
        ("A_05",): (["A_15"], [4]),
        ("A_05", "A_06", "A_07"): ([], []),
        ("A_07",): ([], []),
        ("A_10",): (["A_19", "A_22"], [4]),
        ("A_13",): (["A_12"], [4]),
        ("A_16",): ([], []),
        ("A_21",): ([], []),
    }


def test_all_shipped_claims_valid_at_smoke_scale():
    rng = derive_rng(37, "claims")
    for claim in files.load_shipped_claims():
        outcome = check_claim(claim, escape_samples=25, borel_samples=10, rng=rng)
        assert outcome.valid, claim.describe()


def test_no_claim_pair_is_reachable_in_the_verified_graph():
    from nilcert import graph as graphmod
    from nilcert.degeneration import verify

    verdicts = [verify(w) for _, w in files.load_all_witnesses()]
    g = graphmod.build(verdicts)
    closure = graphmod.transitive_closure(g.edges, g.nodes)
    for claim in files.load_shipped_claims():
        for s in claim.sources:
            for t in claim.targets:
                assert (s, t) not in closure, (s, t)


# -- oracle equivalence -----------------------------------------------------------------


def oracle_conjuncts():
    """The conjuncts of the shipped claims, and every flag containment."""
    out = [FlagContainment(p, q, r) for p in range(1, 6) for q in range(1, 6)
           for r in (*range(1, 6), None)]
    for claim in files.load_shipped_claims():
        out.extend(claim.spec.conjuncts)
    return out


def test_conjunct_evaluators_agree_on_catalog_tables():
    conjuncts = oracle_conjuncts()
    for name in catalog.names():
        table = catalog.get(name).table
        for conj in conjuncts:
            assert conjunct_holds(conj, table) == \
                conjunct_holds_bruteforce(conj, table), (name, conj)


def test_conjunct_evaluators_agree_on_random_sparse_tables():
    rng = derive_rng(41, "oracle-smoke")
    conjuncts = oracle_conjuncts()
    for _ in range(60):
        table = random_sparse_table(rng, 5)
        for conj in conjuncts:
            assert conjunct_holds(conj, table) == \
                conjunct_holds_bruteforce(conj, table), conj


def sample_decision_cases():
    """Every catalog table and 20 random sparse ones, half of them not
    commutative, each with 20 random dense and 20 random Borel bases."""
    rng = derive_rng(43, "sample-decision")
    tables = [catalog.get(name).table for name in catalog.names()]
    tables += [random_sparse_table(rng, 5, symmetric=index % 2 == 0)
               for index in range(20)]
    bases = [random_invertible(rng, 5) for _ in range(20)]
    bases += [random_borel_matrix(rng, 5) for _ in range(20)]
    return tables, bases


def test_sample_decision_reads_coordinates_like_the_oracle():
    # the conditions a sample reads from coordinates: flag containments,
    # A_p^2 = 0 and the polynomial rows
    conjuncts = [c for c in oracle_conjuncts()
                 if isinstance(c, (FlagContainment, PolynomialEq))]
    conjuncts += [PowerVanish(p, 2) for p in range(1, 6)]
    assert any(isinstance(c, PolynomialEq) for c in conjuncts)
    tables, bases = sample_decision_cases()
    for table in tables:
        for g in bases:
            moved, lazy = table.change_basis(g), BasisChange(table, g)
            for conj in conjuncts:
                assert conjunct_holds(conj, lazy) == \
                    conjunct_holds_bruteforce(conj, moved), (table, g, conj)


def test_sample_decision_falls_back_to_the_whole_table():
    # the other conditions read the whole table; dim Ann >= d and A^k = 0
    # are compared with the oracle on the table in its own basis, as they
    # do not depend on the basis.  The oracle takes seconds on A_2^4 and
    # A_3^4 of a dense table, so those two are left out.
    conjuncts = [PowerVanish(p, k) for p in range(1, 6) for k in (1, 3, 4)
                 if k < 4 or p not in (2, 3)]
    conjuncts += [AnnDimAtLeast(d) for d in range(1, 4)]
    tables, bases = sample_decision_cases()
    tables = tables[:25] + tables[-4:]
    for table in tables:
        for g in (bases[0], bases[-1]):
            moved, lazy = table.change_basis(g), BasisChange(table, g)
            for conj in conjuncts:
                invariant = isinstance(conj, AnnDimAtLeast) or conj.p == 1
                assert conjunct_holds(conj, lazy) == conjunct_holds_bruteforce(
                    conj, table if invariant else moved), (table, g, conj)


def test_polynomial_condition_evaluation():
    text = "c(1,3,4)*c(2,2,5) - c(1,3,5)*c(2,2,4)"
    condition = PolynomialEq(parse_condition(text), text)
    table = catalog.get("A_05").table  # c(1,3,4) = 1, c(2,2,4) = 1, rest 0
    assert condition.value(table) == GaussianRational(0)
    skew = StructureTable(5, {(0, 2, 3): GaussianRational(1),
                              (1, 1, 4): GaussianRational(2)})
    assert condition.value(skew) == GaussianRational(2)
