#!/usr/bin/env python3
"""nilcert benchmark: one command runs a workload, checks every verdict and
prints one JSON result line.

    python3 perfbench/run.py --workload verify_all|identify \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced round and prints the per-layer metrics.
See perfbench/README.md for the workloads, the oracles and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ready  # noqa: E402
import workloads as wl  # noqa: E402

OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
ROUND_SECONDS = 15  # nominal length of a round, for the round count


def measure_setup():
    """Median of SETUP_SAMPLES timings of process start to ready."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "ready.py")],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


class Round:
    """Outcome of one pass over a workload's operation list.

    ``part_times`` are the times of the round's timed parts, in a fixed
    order: one per operation, or one per report section of ``run_all``.
    """

    def __init__(self):
        self.part_times = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# -- verify_all ------------------------------------------------------------------

# the sections run_all times itself, in report order
SECTIONS = ("catalog", "witnesses", "graph", "claims", "screening")


class VerifyAll:
    min_rounds = 2   # the determinism oracle compares two reports
    one_operation = True  # a round is one run_all; its parts are its sections

    def __init__(self, seed, workdir):
        from nilcert import suite
        self.suite = suite
        self.seed = seed
        covering, dropped = wl.covering_reduction(wl.reference_edges())
        self.covering, self.dropped = covering, dropped
        self.first_report = None
        self.run_problems = []

    def round(self):
        out = Round()
        t0 = time.perf_counter()
        report = self.suite.run_all(seed=self.seed, samples=wl.ESCAPE_SAMPLES,
                                    borel_samples=wl.BOREL_SAMPLES, jobs=wl.JOBS)
        out.wall = time.perf_counter() - t0
        timings = report["meta"]["timings_seconds"]
        out.part_times = [timings[section] for section in SECTIONS]
        self.last_report = report
        self._check(report, out)
        stripped = self.suite.strip_nondeterministic(report)
        if self.first_report is None:
            self.first_report = stripped
        elif stripped != self.first_report:
            self.run_problems.append("report differs from the first round's")
        return out

    def _check(self, report, out):
        entries = {e["name"]: e for e in report["catalog"]["entries"]}
        for name, dim in wl.PAPER_DER_DIMS.items():
            got = entries.get(name, {}).get("computed_der_dim")
            out.check(got == dim, f"dim Der {name}: {got} != {dim}")
        for record in report["witnesses"]:
            out.check(record["status"] == "VERIFIED"
                      and record.get("der_check") == "ok",
                      f"witness {record['id']}: {record['status']}")
        witness_count = len(os.listdir(os.path.join(wl.DATA, "witnesses")))
        if len(report["witnesses"]) != witness_count:
            out.check(False, f"{len(report['witnesses'])} witness records")
        for record in report["claims"]:
            hits = [e["random_hits"] for e in record["escapes"].values()]
            out.check(record["valid"] and not any(hits),
                      f"claim {record['claim']}: valid={record['valid']}")
        graph = report["graph"]
        out.check({tuple(e) for e in graph["hasse_edges"]} == self.covering
                  and {tuple(e) for e in graph["redundant_reference_edges"]}
                  == self.dropped, "hasse edges differ from the reference")
        out.check(report["screening"]["unexplained_count"] == 0,
                  "screening leaves pairs unexplained")

    def layer_extra(self):
        timings = self.last_report["meta"]["timings_seconds"]
        return {f"suite.{k}_s": timings[k]
                for k in ("catalog", "witnesses", "claims", "screening")}


# -- identify ----------------------------------------------------------------------


class Identify:
    """Algebra files read, loaded and identified, one verdict per file."""

    min_rounds = 1
    one_operation = False
    run_problems = ()

    def __init__(self, seed, workdir):
        from nilcert import catalog, files
        self.files, self.catalog = files, catalog
        tables = {name: {key: (c.re, c.im)
                         for key, c in catalog.get(name).table.entries.items()}
                  for name in catalog.names()}
        self.ops = []
        for index, (label, name, text) in enumerate(
                wl.identify_inputs(seed, tables)):
            expected = wl.expected_candidates(name)
            if catalog.identify(catalog.get(name).table) != expected:
                expected = ["catalog-basis candidates differ", expected]
            path = os.path.join(workdir, f"{index:03d}.alg")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(f"# {label}\n{text}")
            self.ops.append((path, expected))

    def op(self, text):
        _, table = self.files.load_algebra(text)
        return self.catalog.identify(table)

    def round(self):
        out = Round()
        start = time.perf_counter()
        for path, expected in self.ops:
            t0 = time.perf_counter()
            try:
                with open(path, encoding="ascii") as handle:
                    got = self.op(handle.read())
            except Exception as exc:  # a crash is a failed verdict
                got = f"{type(exc).__name__}: {exc}"
            out.part_times.append(time.perf_counter() - t0)
            out.check(got == expected, f"{path}: {got} != {expected}")
        out.wall = time.perf_counter() - start
        return out

    def layer_extra(self):
        return {}


WORKLOADS = {"verify_all": VerifyAll, "identify": Identify}


# -- runs --------------------------------------------------------------------------


def run_rounds(work, seconds):
    """``seconds / ROUND_SECONDS`` whole rounds, at least ``min_rounds``.

    The count depends on ``seconds`` only, never on how fast the host runs,
    so every run of a workload does the same work.
    """
    count = max(work.min_rounds, round(seconds / ROUND_SECONDS))
    return [work.round() for _ in range(count)]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(work, rounds, setup_s):
    """Each timed part costs the median of its repetitions in the run.

    On a shared host identical work runs at little more than half speed for
    seconds at a time; the median of a part over rounds some seconds apart
    is the figure that moves least from run to run.  ``wall_s`` sums the parts; the
    percentiles are over the round's operations (``run_all`` is one).
    """
    parts = [statistics.median(times)
             for times in zip(*(r.part_times for r in rounds))]
    ops = [sum(parts)] if work.one_operation else parts
    return {
        "wall_s": (sum(parts), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verdict_p50_ms": (1000.0 * wl.percentile(ops, 50), "ms"),
        "verdict_p90_ms": (1000.0 * wl.percentile(ops, 90), "ms"),
    }


def traced(work, workload, seed, workdir):
    """One untraced and one traced round; per-layer metrics of the latter."""
    import spans

    plain = work.round()
    extra = work.layer_extra()
    rec, uninstall = spans.install(workdir)
    try:
        t0 = time.perf_counter()
        spanned = work.round()
        rec.merge_workers()
        traced_wall = time.perf_counter() - t0
    finally:
        uninstall()
    metrics = spans.layer_metrics(rec)
    metrics.update(extra)
    metrics["trace.overhead_s"] = traced_wall - plain.wall
    rec.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.json.gz"))
    # layers a workload never calls read 0
    return [plain, spanned], {name: (metrics.get(name, 0), unit)
                              for name, unit, _ in spans.metric_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ready.import_nilcert()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = None if args.trace else measure_setup()
        ready.ready()
        work = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            rounds, metrics = traced(work, args.workload, args.seed, workdir)
        else:
            rounds = run_rounds(work, args.seconds)
            metrics = end_to_end(work, rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems] + list(work.run_problems)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
