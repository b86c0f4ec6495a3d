"""Tests of the benchmark's own generators, oracles and span recorder.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ready  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

ready.import_nilcert()

from nilcert import catalog, files  # noqa: E402


def test_covering_reduction_drops_the_two_implied_reference_edges():
    covering, dropped = wl.covering_reduction(wl.reference_edges())
    assert dropped == {("A_11", "A_22"), ("A_15", "A_22")}
    assert len(covering) == len(wl.reference_edges()) - 2


def test_conjugated_algebra_file_is_identified_as_its_source():
    rng = wl.rng_for(1, "test")
    for name in ("A_08", "A_11", "C5"):
        constants = {key: (c.re, c.im)
                     for key, c in catalog.get(name).table.entries.items()}
        matrix, inverse = wl.random_basis(rng, wl.GAUSSIAN_ENTRIES)
        text = wl.algebra_text(name, wl.conjugate(constants, matrix, inverse))
        _, table = files.load_algebra(text)
        assert catalog.identify(table) == wl.expected_candidates(name)


def test_inverses_are_exact_and_integer_bases_have_determinant_two():
    for make in (wl.triangular_basis,
                 lambda rng: wl.random_basis(rng, wl.GAUSSIAN_ENTRIES)):
        matrix, inverse = make(wl.rng_for(2, "test"))
        for i in range(5):
            for j in range(5):
                acc = wl.ZERO
                for k in range(5):
                    acc = wl._add(acc, wl._mul(matrix[i][k], inverse[k][j]))
                assert acc == (wl.ONE if i == j else wl.ZERO)
    for seed in range(5):
        _, det = wl.invert(wl.triangular_basis(wl.rng_for(seed, "test"))[0])
        assert det[0] in (-2, 2) and det[1] == 0


def test_percentile_interpolates():
    assert wl.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert wl.percentile([0.0, 10.0], 90) == 9.0


def test_spans_record_calls_and_uninstall_restores(tmp_path):
    from nilcert import algebra, linalg
    original = linalg.rref
    rec, uninstall = spans.install(str(tmp_path))
    try:
        assert algebra.rref is not original and linalg.rref is algebra.rref
        catalog.fingerprint(catalog.get("A_05").table)
    finally:
        uninstall()
    assert linalg.rref is original and algebra.rref is original
    metrics = spans.layer_metrics(rec)
    assert metrics["catalog.fingerprint_calls"] == 1
    assert metrics["linalg.rref_calls"] > 0
    assert 0 < metrics["derivations.dimension_s"] <= metrics["catalog.fingerprint_s"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(layers - metrics["catalog.fingerprint_s"]) < 1e-6


def test_each_part_costs_its_median_over_rounds():
    import run

    rounds = []
    for times in ([1.0, 5.0], [3.0, 4.0], [2.0, 9.0]):
        rounds.append(run.Round())
        rounds[-1].part_times = times
    ops = run.end_to_end(run.Identify, rounds, 0.5)
    assert ops["wall_s"][0] == 7.0
    assert ops["verdict_p50_ms"][0] == 3500.0
    whole = run.end_to_end(run.VerifyAll, rounds, 0.5)
    assert whole["wall_s"][0] == 7.0
    assert whole["verdict_p50_ms"][0] == whole["verdict_p90_ms"][0] == 7000.0
