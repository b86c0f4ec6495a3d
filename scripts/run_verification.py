#!/usr/bin/env python3
"""Run the full verification battery and write the JSON report + DOT graph.

Usage: python scripts/run_verification.py [seed] [outdir]
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from nilcert import graph as graphmod  # noqa: E402
from nilcert.degeneration import VERIFIED, Verdict  # noqa: E402
from nilcert.suite import run_all  # noqa: E402


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    outdir = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else pathlib.Path("out")
    outdir.mkdir(parents=True, exist_ok=True)

    report = run_all(seed=seed, log=print)
    (outdir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="ascii")

    # the graph of the verified witnesses, rebuilt from their records; a
    # failed witness is reported in report.json and its edge stays out
    verdicts = [Verdict(r["status"], r["source"], r["target"],
                        {"witness_id": r["id"]})
                for r in report["witnesses"] if r["status"] == VERIFIED]
    g = graphmod.build(verdicts)
    (outdir / "degenerations.dot").write_text(graphmod.emit_dot(g, "hasse"),
                                              encoding="ascii")
    (outdir / "degenerations.json").write_text(graphmod.emit_json(g, "hasse"),
                                               encoding="ascii")

    print(f"ok={report['ok']}  report + graph written to {outdir}/")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
