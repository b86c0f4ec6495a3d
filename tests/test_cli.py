"""Command-line surface: exit codes, outputs, determinism, file handling."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from nilcert import degeneration, files, suite
from nilcert.cli import main
from nilcert.suite import run_all, strip_nondeterministic

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def write_witness(tmp_path, wid="a23_to_a24"):
    path = tmp_path / f"{wid}.wit"
    path.write_text(files.data_text("witnesses", f"{wid}.wit"), encoding="ascii")
    return path


def write_algebra(tmp_path, name="a01"):
    path = tmp_path / f"{name}.alg"
    path.write_text(files.data_text("algebras", f"{name}.alg"), encoding="ascii")
    return path


def test_verify_single_witness_ok(tmp_path, capsys):
    path = write_witness(tmp_path)
    assert main(["verify", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "VERIFIED"
    assert record["source"] == "A_23" and record["target"] == "A_24"


def test_verify_failing_witness_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.wit"
    path.write_text("witness A_24 -> A_23\nE_1 = e_1\nE_2 = e_2\n"
                    "E_3 = e_3\nE_4 = e_4\nE_5 = e_5\n", encoding="ascii")
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "verification"


def test_unparsable_witness_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.wit"
    path.write_text("witness A_23 -> A_24\nE_1 = @@@\n", encoding="ascii")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "input"


def test_missing_file_exits_2(capsys):
    assert main(["verify", "/nonexistent/file.wit"]) == 2


def test_derivations_command(tmp_path, capsys):
    path = write_algebra(tmp_path, "a01")
    assert main(["derivations", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dim Der = 5" in out


def test_invariants_command(tmp_path, capsys):
    path = write_algebra(tmp_path, "a21")
    assert main(["invariants", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["ann_dim"] == 1 and record["dim_der"] == 11


def test_identify_zero_algebra(tmp_path, capsys):
    path = write_algebra(tmp_path, "c5")
    assert main(["identify", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["candidates"] == ["C5"]


def test_identify_rejects_input_outside_variety(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("algebra X\ndim 5\nfield Q(i)\ntable raw\n"
                    "e_1 * e_2 = e_3\n", encoding="ascii")
    assert main(["identify", str(path)]) == 2


def test_graph_emit_json(capsys):
    assert main(["graph", "--emit", "json", "--hasse"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["nodes"]) == 25
    assert {"source": "A_01", "target": "A_02",
            "provenance": "hasse"}.items() <= payload["edges"][0].items() or True
    edges = {(e["source"], e["target"]) for e in payload["edges"]}
    assert ("A_23", "A_24") in edges


def test_graph_emit_dot(capsys):
    assert main(["graph", "--emit", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph degenerations {")


def test_verify_all_small_run_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify-all", "--seed", "7", "--samples", "20",
                 "--borel-samples", "5", "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="ascii"))
    assert report["ok"] is True
    assert report["meta"]["seed"] == 7
    assert len(report["witnesses"]) == 44
    assert report["screening"]["unexplained_count"] == 0
    by_id = {r["id"]: r for r in report["witnesses"]}
    # rows not in the covering reduction are marked as transitively implied
    assert by_id["a09_to_a12"]["implied_by_transitivity"] is True
    assert by_id["a09_to_a11"]["implied_by_transitivity"] is False
    assert by_id["a09_to_a11"]["hasse_edge"] is True
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_verify_all_is_deterministic_under_a_seed():
    first = run_all(seed=11, samples=10, borel_samples=4, t_samples=(1e-4,))
    second = run_all(seed=11, samples=10, borel_samples=4, t_samples=(1e-4,))
    assert strip_nondeterministic(first) == strip_nondeterministic(second)


def test_worker_pool_gives_identical_witness_results():
    sequential = strip_nondeterministic(
        run_all(seed=3, samples=2, borel_samples=1, t_samples=(1e-4,), jobs=1))
    parallel = strip_nondeterministic(
        run_all(seed=3, samples=2, borel_samples=1, t_samples=(1e-4,), jobs=2))
    sequential["meta"].pop("jobs")
    parallel["meta"].pop("jobs")
    assert all(len(r["numeric"]) == 1 for r in sequential["witnesses"])
    assert sequential == parallel


def test_witness_section_transforms_each_witness_once(monkeypatch):
    calls = []

    def counted(source, matrix):
        calls.append(matrix)
        return transform(source, matrix)

    transform = degeneration.transformed_constants
    monkeypatch.setattr(degeneration, "transformed_constants", counted)
    records, _, ok = suite._witness_section((1e-4,), 1, None)
    assert ok and all("numeric" in r for r in records)
    assert len(calls) == len(files.witness_ids())


def test_unexplained_screening_pair_fails_verify_all(tmp_path, monkeypatch):
    monkeypatch.setattr(suite, "screening_completeness",
                        lambda closure, pairs: {"explained": {},
                                                "unexplained": [("A_24", "A_23")]})
    report_path = tmp_path / "report.json"
    code = main(["verify-all", "--samples", "1", "--borel-samples", "1",
                 "--t-samples", "", "--report", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text(encoding="ascii"))
    assert report["ok"] is False
    assert report["screening"]["ok"] is False
    assert report["screening"]["unexplained_count"] == 1
    assert report["catalog"]["ok"] and report["graph"]["ok"]
    assert all(r["valid"] for r in report["claims"])


def test_failed_witness_fails_verify_all_without_a_traceback(tmp_path,
                                                              monkeypatch):
    real_verify = suite.verify

    def mismatching(witness, t_samples=()):
        verdict = real_verify(witness, t_samples)
        if (witness.source, witness.target) == ("A_23", "A_24"):
            return degeneration.Verdict(degeneration.LIMIT_MISMATCH,
                                        witness.source, witness.target,
                                        verdict.details)
        return verdict

    monkeypatch.setattr(suite, "verify", mismatching)
    report_path = tmp_path / "report.json"
    code = main(["verify-all", "--samples", "1", "--borel-samples", "1",
                 "--report", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text(encoding="ascii"))
    assert report["ok"] is False
    failed = [r for r in report["witnesses"] if r["status"] != "VERIFIED"]
    assert [(r["source"], r["target"]) for r in failed] == [("A_23", "A_24")]
    assert not failed[0]["hasse_edge"]
    assert not failed[0]["implied_by_transitivity"]
    assert report["graph"]["ok"] is False
    assert ["A_23", "A_24"] in report["graph"]["missing_reduction"]


def test_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NILCERT_SEED", "not-an-int")
    assert main(["verify-all", "--samples", "1", "--borel-samples", "1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("NILCERT_SEED", "5")
    report_path = tmp_path / "seeded.json"
    assert main(["verify-all", "--samples", "1", "--borel-samples", "1",
                 "--t-samples", "", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="ascii"))
    assert report["meta"]["seed"] == 5
    assert report["meta"]["t_samples"] == []


def test_t_samples_flag_parsing():
    from nilcert.cli import _parse_t_samples
    assert _parse_t_samples("1e-3,1e-4") == (1e-3, 1e-4)
    assert _parse_t_samples("") == ()
    with pytest.raises(Exception):
        _parse_t_samples("abc")


def test_module_entry_point_smoke(tmp_path):
    path = write_algebra(tmp_path, "a24")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "nilcert", "invariants", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim_der"] == 17
