"""Command-line surface: exit codes, outputs, determinism, file handling."""

import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys

import pytest

from nilcert import cli, degeneration, files, suite
from nilcert.cli import build_arg_parser, main
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


def test_verify_prints_the_numeric_crosscheck(tmp_path, capsys):
    path = write_witness(tmp_path, "a01_to_a02")
    assert main(["verify", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert [s["t"] for s in record["details"]["numeric"]] == [1e-4]
    assert record["details"]["numeric"][0]["max_deviation"] < 1e-2


def test_verify_failing_witness_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.wit"
    path.write_text("witness A_24 -> A_23\nE_1 = e_1\nE_2 = e_2\n"
                    "E_3 = e_3\nE_4 = e_4\nE_5 = e_5\n", encoding="ascii")
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "verification"


def test_unparsable_witness_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.wit"
    for rhs in ("@@@", "sqrt((-1 - t^3)/t) e_2"):
        path.write_text(f"witness A_23 -> A_24\nE_1 = {rhs}\n", encoding="ascii")
        assert main(["verify", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "line 2: " in err["detail"], rhs


@pytest.mark.parametrize("dim", [4, 6])
def test_witness_of_another_dimension_than_its_algebras_exits_2(tmp_path, capsys,
                                                                  dim):
    # a 4-row basis used to end in an IndexError traceback, a 6-row one in a
    # LIMIT_MISMATCH; both are refused before any arithmetic
    path = tmp_path / f"dim{dim}.wit"
    rows = "".join(f"E_{i} = e_{i}\n" for i in range(1, dim + 1))
    path.write_text(f"witness A_01 -> A_02\ndim {dim}\n{rows}", encoding="ascii")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "input"
    assert f"a basis of {dim} vectors for algebras of dimension 5 and 5" \
        in err["detail"]


@pytest.mark.parametrize("name", ["../witnesses/a01_to_a02", "A_25"])
def test_witness_naming_an_unknown_algebra_exits_2(tmp_path, capsys, name):
    path = tmp_path / "unknown.wit"
    path.write_text(f"witness {name} -> A_24\nE_1 = e_1\nE_2 = e_2\n"
                    "E_3 = e_3\nE_4 = e_4\nE_5 = e_5\n", encoding="ascii")
    assert main(["verify", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input" and name in err["detail"]


def test_sqrt_in_an_algebra_file_exits_2(tmp_path, capsys):
    path = tmp_path / "root.alg"
    path.write_text("algebra X\ndim 5\ne_1 * e_1 = sqrt(4) e_2\n",
                    encoding="ascii")
    for command in ("invariants", "derivations", "identify"):
        assert main([command, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input", command
        assert err["detail"].startswith(f"{path}: line 3: "), command


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    for label, rhs in (("paren", "(" * 3000 + "e_2" + ")" * 3000),
                       ("minus", "-" * 3000 + "e_2")):
        algebra = tmp_path / f"{label}.alg"
        algebra.write_text(f"algebra X\ndim 5\ne_1 * e_1 = {rhs}\n",
                           encoding="ascii")
        witness = tmp_path / f"{label}.wit"
        witness.write_text(f"witness A_23 -> A_24\nE_1 = {rhs}\n",
                           encoding="ascii")
        for command, path, lineno in (("identify", algebra, 3),
                                      ("verify", witness, 2)):
            assert main([command, str(path)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "input", (command, label)
            assert f"line {lineno}: nesting exceeds" in err["detail"]


def test_sum_over_many_denominators_exits_2(tmp_path, capsys):
    # each term of 1/2 e_2 + 1/3 e_2 + ... over the first 16 000 primes
    # grows the common denominator; the sum is refused past 1024 bits
    primes, composite = [], set()
    for n in range(2, 180_000):
        if n not in composite:
            primes.append(n)
            composite.update(range(n * n, 180_000, n))
    rhs = " + ".join(f"1/{p} e_2" for p in primes[:16_000])
    path = tmp_path / "primes.alg"
    path.write_text(f"algebra X\ndim 5\ne_1 * e_1 = {rhs}\n", encoding="ascii")
    assert main(["identify", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert "line 3: sum with coefficients over 1024 bits" in err["detail"]


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
    assert payload["edges"][0] == {"source": "A_01", "target": "A_02",
                                   "provenance": "a01_to_a02"}
    assert {e["provenance"] for e in payload["edges"]} <= \
        {*files.witness_ids(), "trivial"}
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
    # rows in which the pair screen decides every target: a finding only
    assert report["screening"]["redundant_claim_rows"] == [
        "A_05 A_06 A_07 !-> A_21", "A_07 !-> A_16 A_18",
        "A_16 !-> A_12 A_18 A_22", "A_21 !-> A_20"]
    out = capsys.readouterr().out
    assert "all checks passed" in out


@pytest.mark.parametrize("flag", ["--samples", "--borel-samples"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_all_refuses_a_sample_count_below_one(flag, count, capsys,
                                                     monkeypatch):
    # zero samples would print EVIDENTIAL escapes drawn from no sample
    monkeypatch.setattr(cli, "run_all", None)  # refused before any run
    assert main(["verify-all", flag, count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "input",
        "detail": "--samples and --borel-samples must be at least 1"}


def test_verify_all_is_deterministic_under_a_seed():
    first = run_all(seed=11, samples=10, borel_samples=4)
    second = run_all(seed=11, samples=10, borel_samples=4)
    assert strip_nondeterministic(first) == strip_nondeterministic(second)


def test_worker_pool_gives_identical_witness_and_claim_results(monkeypatch):
    # A^6 = 0 holds for A_24 in every basis: the random search hits on its
    # first sample, so hit_example is a matrix drawn from the claim's stream.
    # Three jobs take the 44 witnesses in 11 chunks of 4, which they cannot
    # share evenly.
    claims = files.load_shipped_claims() + files.load_claims(
        "claim A_01 !-> A_24\nrequire A_1^6 = 0\n")
    monkeypatch.setattr(files, "load_shipped_claims", lambda: claims)
    sequential = strip_nondeterministic(
        run_all(seed=3, samples=2, borel_samples=1, jobs=1))
    sequential["meta"].pop("jobs")
    assert all(len(r["numeric"]) == 1 for r in sequential["witnesses"])
    for jobs in (2, 3):
        parallel = strip_nondeterministic(
            run_all(seed=3, samples=2, borel_samples=1, jobs=jobs))
        assert multiprocessing.active_children() == []
        assert parallel["meta"].pop("jobs") == jobs
        assert [r["claim"] for r in parallel["claims"]] == \
            [claim.describe() for claim in claims]
        escape = parallel["claims"][-1]["escapes"]["A_24"]
        assert escape["status"] == "REFUTED" and escape["random_hits"] == 2
        assert escape["hit_example"] is not None
        assert sequential == parallel


def test_worker_pool_takes_tasks_in_chunks(monkeypatch):
    chunks = []

    class Recording(suite.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            chunks.append((len(iterables[0]), chunksize))
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(suite, "ProcessPoolExecutor", Recording)
    with suite._task_map(3) as pmap:
        assert list(pmap(abs, list(range(-13, 0)))) == list(range(13, 0, -1))
        assert list(pmap(abs, [])) == []
    run_all(seed=3, samples=1, borel_samples=1, jobs=2)
    # the chunk size multiprocessing.Pool.map picks, ceil(len / (4 jobs))
    assert chunks == [(13, 2), (0, 1), (44, 6), (8, 1)]
    assert multiprocessing.active_children() == []


def test_run_all_closes_and_reduces_each_graph_once(monkeypatch):
    calls = {"transitive_closure": 0, "hasse_reduction": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(suite.graphmod, name,
                            counting(name, getattr(suite.graphmod, name)))
    run_all(seed=3, samples=1, borel_samples=1)
    # once for the verified graph and once for the reference edges
    assert calls == {"transitive_closure": 2, "hasse_reduction": 2}


def test_failing_claim_task_shuts_the_worker_pool_down(monkeypatch):
    def failing(claim, samples, borel_samples, rng):
        if claim.targets == ("A_15",):
            raise RuntimeError("planted claim failure")
        return check_claim(claim, samples, borel_samples, rng)

    check_claim = suite.check_claim
    monkeypatch.setattr(suite, "check_claim", failing)
    with pytest.raises(RuntimeError, match="planted claim failure"):
        run_all(seed=3, samples=2, borel_samples=1, jobs=2)
    assert multiprocessing.active_children() == []


def test_witness_section_transforms_each_witness_once(monkeypatch):
    calls = []

    def counted(source, matrix):
        calls.append(matrix)
        return transform(source, matrix)

    transform = degeneration.transformed_constants
    monkeypatch.setattr(degeneration, "transformed_constants", counted)
    records, _, ok = suite._witness_section(map, None)
    assert ok and all("numeric" in r for r in records)
    assert len(calls) == len(files.witness_ids())


def test_unexplained_screening_pair_fails_verify_all(tmp_path, monkeypatch):
    monkeypatch.setattr(suite, "screening_completeness",
                        lambda closure, pairs: {"explained": {},
                                                "unexplained": [("A_24", "A_23")]})
    report_path = tmp_path / "report.json"
    code = main(["verify-all", "--samples", "1", "--borel-samples", "1",
                 "--report", str(report_path)])
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

    def mismatching(witness):
        verdict = real_verify(witness)
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


def test_graph_command_reports_a_failed_witness(monkeypatch, capsys):
    real_verify = suite.verify

    def mismatching(witness):
        verdict = real_verify(witness)
        if (witness.source, witness.target) == ("A_23", "A_24"):
            verdict.status = degeneration.LIMIT_MISMATCH
        return verdict

    monkeypatch.setattr(suite, "verify", mismatching)
    assert main(["graph", "--emit", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == \
        "witness a23_to_a24 is LIMIT_MISMATCH"


def test_seed_flag_reaches_the_report(tmp_path):
    assert build_arg_parser().parse_args(["verify-all"]).seed == 0
    report_path = tmp_path / "seeded.json"
    assert main(["verify-all", "--seed", "5", "--samples", "1",
                 "--borel-samples", "1", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="ascii"))
    assert report["meta"]["seed"] == 5
    assert "t_samples" not in report["meta"]


def test_readme_synopsis_names_the_verify_all_options(capsys):
    readme = (pathlib.Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    synopsis = re.search(r"^    nilcert verify-all .*?(?=^    nilcert verify )",
                         readme, re.MULTILINE | re.DOTALL).group(0)
    with pytest.raises(SystemExit):
        build_arg_parser().parse_args(["verify-all", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    defined = set(re.findall(r"--[a-z-]+", usage)) - {"--help"}
    assert set(re.findall(r"--[a-z-]+", synopsis)) == defined


def test_module_entry_point_smoke(tmp_path):
    path = write_algebra(tmp_path, "a24")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "nilcert", "invariants", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim_der"] == 17
