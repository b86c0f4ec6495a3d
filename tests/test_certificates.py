"""Closed-set certificates: membership, witnesses, probes, escapes, and the
screening battery, with oracle equivalence against the raw defining equations."""

import pytest

from nilcert import catalog, files
from nilcert.algebra import StructureTable
from nilcert.certificates import (AnnDimAtLeast, ClosedSetSpec,
                                  FlagContainment, PolynomialEq, PowerVanish,
                                  borel_stability_probe, check_claim,
                                  conjunct_holds, conjunct_holds_bruteforce,
                                  escape_evidence, necessary_conditions,
                                  satisfies, satisfies_with_witness,
                                  screening_completeness)
from nilcert.parser import parse_condition
from nilcert.sampling import derive_rng, random_sparse_table
from nilcert.scalars import GaussianRational

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
    assert satisfies_with_witness(table, R_A13, basis)
    assert not satisfies(R_A13, table)  # identity basis fails A_1 A_2 <= A_5


def test_identity_witness_equals_plain_satisfies():
    table = catalog.get("A_03").table
    eye = [[GaussianRational(1 if i == j else 0) for j in range(5)]
           for i in range(5)]
    assert satisfies_with_witness(table, R_A03, eye) == satisfies(R_A03, table)


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
    assert necessary_conditions("A_13", "A_13").all_pass


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


def shipped_conjuncts():
    out = []
    for claim in files.load_shipped_claims():
        out.extend(claim.spec.conjuncts)
    return out


def test_conjunct_evaluators_agree_on_catalog_tables():
    conjuncts = shipped_conjuncts()
    for name in catalog.names():
        table = catalog.get(name).table
        for conj in conjuncts:
            assert conjunct_holds(conj, table) == \
                conjunct_holds_bruteforce(conj, table), (name, conj)


def test_conjunct_evaluators_agree_on_random_sparse_tables():
    rng = derive_rng(41, "oracle-smoke")
    conjuncts = shipped_conjuncts()
    for _ in range(60):
        table = random_sparse_table(rng, 5)
        for conj in conjuncts:
            assert conjunct_holds(conj, table) == \
                conjunct_holds_bruteforce(conj, table), conj


def test_polynomial_condition_evaluation():
    text = "c(1,3,4)*c(2,2,5) - c(1,3,5)*c(2,2,4)"
    condition = PolynomialEq(parse_condition(text), text)
    table = catalog.get("A_05").table  # c(1,3,4) = 1, c(2,2,4) = 1, rest 0
    assert condition.value(table) == GaussianRational(0)
    skew = StructureTable(5, {(0, 2, 3): GaussianRational(1),
                              (1, 1, 4): GaussianRational(2)})
    assert condition.value(skew) == GaussianRational(2)
