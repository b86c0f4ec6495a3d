"""Acceptance battery: one test per criterion, printing a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances and sample counts are pinned here, not configurable.
"""

import time
from contextlib import contextmanager

import pytest

from nilcert import catalog, files
from nilcert import graph as graphmod
from nilcert.certificates import (check_claim, conjunct_holds,
                                  screening_completeness)
from nilcert.degeneration import (limit_table, numeric_crosscheck,
                                  transformed_constants, verify)
from nilcert.derivations import derivation_dimension
from nilcert.sampling import derive_rng, random_invertible
from nilcert.scalars import POLY_ONE, POLY_ZERO
from oracles import conjunct_holds_bruteforce, random_sparse_table

EXPECTED_DER_COLUMN = (5, 6, 6, 7, 7, 7, 7, 8, 8, 9, 9, 11,
                       8, 9, 9, 10, 10, 11, 11, 12, 11, 12, 14, 17)

# Targets whose escape is certified by a basis-independent invariant, R's own
# or the pair screen against the row's source; every other (claim, target)
# pair must come back EVIDENTIAL with zero hits.
EXPECTED_CERTIFIED = {
    (("A_03",), "A_05"),                 # whole-algebra A^4 != 0
    (("A_05", "A_06", "A_07"), "A_21"),  # dim Ann = 1 < 2
    (("A_07",), "A_16"),                 # pair screen: dim A^2 2 -> 3
    (("A_07",), "A_18"),                 # whole-algebra A^3 != 0
    (("A_13",), "A_16"),                 # pair screen: dim A^2 2 -> 3
    (("A_16",), "A_12"),                 # pair screen: dim Ann 3 -> 2
    (("A_16",), "A_18"),                 # whole-algebra A^3 != 0
    (("A_16",), "A_22"),                 # pair screen: dim Ann 3 -> 2
    (("A_21",), "A_20"),                 # pair screen: dim A^2 1 -> 2
}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def all_verdicts():
    verdicts = []
    for wid, witness in files.load_all_witnesses():
        verdict = verify(witness)
        verdict.details["witness_id"] = wid
        verdicts.append(verdict)
    return verdicts


def test_criterion_1_derivation_dimension_column():
    with criterion(1, "all 24 derivation dimensions match exactly, under 5 s"):
        start = time.perf_counter()
        names = [n for n in catalog.names() if n != "C5"]
        got = tuple(derivation_dimension(catalog.get(n).table) for n in names)
        elapsed = time.perf_counter() - start
        assert got == EXPECTED_DER_COLUMN
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_all_witnesses_verified(all_verdicts):
    with criterion(2, "all 44 parametric-basis witnesses return VERIFIED, under 60 s"):
        start = time.perf_counter()
        statuses = {}
        for wid, witness in files.load_all_witnesses():
            statuses[wid] = verify(witness).status
        elapsed = time.perf_counter() - start
        assert len(statuses) == 44
        failures = {wid: s for wid, s in statuses.items() if s != "VERIFIED"}
        assert not failures, failures
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_3_reference_graph_reconstruction(all_verdicts):
    with criterion(3, "covering reduction and closure match the transcribed "
                      "reference graph"):
        reference = files.load_reference_edges()
        assert len(reference) == 44  # manual count against the figure
        g = graphmod.build(all_verdicts)
        diff = graphmod.compare_with_reference(g, reference)
        assert diff.reduction_matches, (diff.missing_reduction,
                                        diff.extra_reduction)
        assert diff.closure_matches, (diff.missing_closure, diff.extra_closure)
        # the printed figure carries exactly two transitively implied edges
        assert diff.redundant_reference_edges == \
            [("A_11", "A_22"), ("A_15", "A_22")]
        assert graphmod.sources(g) == ["A_01"]


def test_criterion_4_certificates_full_scale():
    with criterion(4, "every claim: sources satisfy R, Borel probes clean at "
                      "200, certified/evidential escapes at 1000 samples"):
        claims = files.load_shipped_claims()
        assert len(claims) == 8
        for index, claim in enumerate(claims):
            rng = derive_rng(0, f"acceptance-claim:{index}")
            outcome = check_claim(claim, escape_samples=1000,
                                  borel_samples=200, rng=rng)
            for source_check in outcome.source_checks:
                assert source_check.satisfied, claim.describe()
                assert source_check.borel_violation is None, claim.describe()
            assert claim.witness_bases == {} or "A_13" in claim.witness_bases
            for target, escape in outcome.escapes.items():
                key = (claim.sources, target)
                if key in EXPECTED_CERTIFIED:
                    assert escape.status == "CERTIFIED", (key, escape)
                else:
                    assert escape.status == "EVIDENTIAL", (key, escape)
                    assert escape.random_hits == 0 and escape.samples == 1000
        # the A_13 row exercises the printed witness basis
        witness_rows = [c for c in claims if c.witness_bases]
        assert len(witness_rows) == 1 and witness_rows[0].sources == ("A_13",)


def test_criterion_5_property_suites(all_verdicts):
    with criterion(5, "fingerprint invariance (50 x 24), semicontinuity and "
                      "identity preservation along every edge, oracle "
                      "equivalence on 500 random tables"):
        # basis-change invariance of fingerprints, 50 conjugations per algebra
        rng = derive_rng(0, "acceptance-invariance")
        for name in catalog.names():
            if name == "C5":
                continue
            table = catalog.get(name).table
            want = catalog.fingerprint(table)
            for _ in range(50):
                moved = table.change_basis(random_invertible(rng, 5))
                assert catalog.fingerprint(moved) == want, name

        # semicontinuity along every verified edge
        for verdict in all_verdicts:
            fp_s = catalog.fingerprint(catalog.get(verdict.source).table)
            fp_t = catalog.fingerprint(catalog.get(verdict.target).table)
            assert fp_s.dim_der < fp_t.dim_der, verdict.details["witness_id"]
            assert all(a >= b for a, b in zip(fp_s.power_dims, fp_t.power_dims))
            assert fp_s.ann_dim <= fp_t.ann_dim

        # identity preservation in every limit table
        for wid, witness in files.load_all_witnesses():
            moved = transformed_constants(catalog.get(witness.source).table,
                                          witness.matrix)
            limit = limit_table(moved, 5)
            report = limit.check_identities()
            assert report.commutative and report.associative, wid
            assert catalog.fingerprint(limit).nilpotency_index > 0, wid

        # closed-set evaluators agree with the raw defining equations
        rng = derive_rng(0, "acceptance-oracle")
        conjuncts = [c for claim in files.load_shipped_claims()
                     for c in claim.spec.conjuncts]
        for _ in range(500):
            table = random_sparse_table(rng, 5)
            for conj in conjuncts:
                assert conjunct_holds(conj, table) == \
                    conjunct_holds_bruteforce(conj, table), conj


def predicted_deviation(constants, target, t):
    """max_e |lc_e| t^m_e, with m_e and lc_e the order and leading coefficient
    at t = 0 of c'_e(t) - c_e(0): the leading term of each entry's error.
    With c'_e = num / den, the error is (num - c_e(0) den) / den."""
    out = 0.0
    for key in constants.keys() | target.entries.keys():
        num, den = constants.get(key, (POLY_ZERO, POLY_ONE))
        error = num - den.scale(target.entry(*key))
        if error:
            lead = error.coeff(error.order) / den.coeff(den.order)
            out = max(out, abs(lead.eval_complex()) * t ** (error.order - den.order))
    return out


def test_criterion_6_numeric_crosscheck(all_verdicts):
    with criterion(6, "floating spot check at t = 1e-4 within 1% of the "
                      "leading error term of the exact constants"):
        for wid, witness in files.load_all_witnesses():
            constants = transformed_constants(
                catalog.get(witness.source).table, witness.matrix)
            want = predicted_deviation(constants,
                                       catalog.get(witness.target).table, 1e-4)
            got = numeric_crosscheck(witness, [1e-4],
                                     constants)[0].max_deviation
            # a wrong order at t = 1e-4 misses by a factor of 10^4 or more
            assert abs(got - want) <= 0.01 * want, (wid, got, want)


def test_screening_completeness_has_no_unexplained_pairs(all_verdicts):
    # companion to criterion 4: every no-path pair is explained by the
    # invariant screen or a certificate (possibly through transitivity)
    g = graphmod.build(all_verdicts)
    closure = graphmod.transitive_closure(g.edges, g.nodes)
    pairs = [(s, t) for claim in files.load_shipped_claims()
             for s in claim.sources for t in claim.targets]
    report = screening_completeness(closure, pairs)
    assert report["unexplained"] == []
