"""Command-line interface.

Subcommands:

    verify-all                 run every witness, claim and graph comparison
    verify <witness-file>      verify one parametric-basis witness file
    invariants <algebra-file>  invariant fingerprint of an algebra file
    derivations <algebra-file> derivation dimension and basis matrices
    identify <algebra-file>    catalog candidates matching the fingerprint
    graph --emit dot|json      emit the verified degeneration graph

Exit codes: 0 all checks passed, 1 a verification failed, 2 input error.
Structured error records go to stderr as JSON.  The seed of verify-all is
--seed, 0 by default.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, files
from . import graph as graphmod
from .degeneration import DimensionMismatchError, verify
from .derivations import derivation_space
from .suite import _witness_section, run_all

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _fail_input(message):
    json.dump({"error": "input", "detail": message}, sys.stderr)
    sys.stderr.write("\n")
    return EXIT_INPUT_ERROR


def _fail_verification(message, record=None):
    payload = {"error": "verification", "detail": message}
    if record is not None:
        payload["record"] = record
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")
    return EXIT_VERIFICATION_FAILED


def _read(path):
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _load_algebra_file(path):
    try:
        return files.load_algebra(_read(path))
    except (OSError, ValueError) as exc:
        raise SystemExit(_fail_input(f"{path}: {exc}"))


def _cmd_verify_all(args):
    if min(args.samples, args.borel_samples) < 1:
        return _fail_input("--samples and --borel-samples must be at least 1")
    report = run_all(seed=args.seed, samples=args.samples,
                     borel_samples=args.borel_samples, jobs=args.jobs,
                     log=lambda line: print(line))
    print(f"catalog:   {'ok' if report['catalog']['ok'] else 'FAILED'}")
    print(f"witnesses: {sum(r['status'] == 'VERIFIED' for r in report['witnesses'])}"
          f"/{len(report['witnesses'])} verified")
    print(f"graph:     {'matches reference' if report['graph']['ok'] else 'MISMATCH'}"
          f" (redundant reference edges: "
          f"{report['graph']['redundant_reference_edges']})")
    print(f"claims:    {sum(r['valid'] for r in report['claims'])}"
          f"/{len(report['claims'])} valid")
    print(f"screening: {report['screening']['unexplained_count']} unexplained pairs")
    if args.report:
        with open(args.report, "w", encoding="ascii") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.report}")
    if not report["ok"]:
        return _fail_verification("one or more checks failed")
    print("all checks passed")
    return EXIT_OK


def _cmd_verify(args):
    try:
        witness = files.load_witness(_read(args.witness_file))
    except (OSError, ValueError) as exc:
        return _fail_input(f"{args.witness_file}: {exc}")
    try:
        verdict = verify(witness)
    except catalog.UnknownAlgebraError as exc:
        return _fail_input(f"unknown algebra name {exc}")
    except DimensionMismatchError as exc:
        return _fail_input(f"{args.witness_file}: {exc}")
    record = {"source": verdict.source, "target": verdict.target,
              "status": verdict.status, "details": verdict.details}
    print(json.dumps(record, indent=2, sort_keys=True))
    if not verdict.verified:
        return _fail_verification(f"witness is {verdict.status}", record)
    return EXIT_OK


def _cmd_invariants(args):
    name, table = _load_algebra_file(args.algebra_file)
    fp = catalog.fingerprint(table)
    print(json.dumps({"name": name, **fp.as_dict()}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_derivations(args):
    name, table = _load_algebra_file(args.algebra_file)
    space = derivation_space(table)
    print(f"algebra {name}: dim Der = {space.dimension}")
    for index, matrix in enumerate(space.basis):
        print(f"D_{index + 1}:")
        for row in matrix:
            print("  [" + ", ".join(repr(c) for c in row) + "]")
    return EXIT_OK


def _cmd_identify(args):
    name, table = _load_algebra_file(args.algebra_file)
    try:
        candidates = catalog.identify(table)
    except catalog.NotInVarietyError as exc:
        return _fail_input(f"{args.algebra_file}: {exc}")
    print(json.dumps({"name": name, "candidates": candidates},
                     indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_graph(args):
    _, verdicts, _ = _witness_section(map, None)
    for verdict in verdicts:
        if not verdict.verified:
            return _fail_verification(
                f"witness {verdict.details['witness_id']} is {verdict.status}")
    g = graphmod.build(verdicts)
    view = "closure" if args.closure else ("hasse" if args.hasse else "verified")
    if args.emit == "dot":
        print(graphmod.emit_dot(g, view))
    else:
        print(graphmod.emit_json(g, view))
    return EXIT_OK


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="nilcert",
        description="Exact verification of degenerations of 5-dimensional "
                    "nilpotent commutative associative algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify_all = sub.add_parser("verify-all", help="run the full battery")
    verify_all.add_argument("--seed", type=int, default=0)
    verify_all.add_argument("--samples", type=int, default=1000,
                            help="random bases per escape search")
    verify_all.add_argument("--borel-samples", type=int, default=200)
    verify_all.add_argument("--report", help="write the JSON report here")
    verify_all.add_argument("--jobs", type=int, default=1)
    verify_all.set_defaults(func=_cmd_verify_all)

    one = sub.add_parser("verify", help="verify a single witness file")
    one.add_argument("witness_file")
    one.set_defaults(func=_cmd_verify)

    invariants = sub.add_parser("invariants", help="fingerprint an algebra file")
    invariants.add_argument("algebra_file")
    invariants.set_defaults(func=_cmd_invariants)

    derivations = sub.add_parser("derivations",
                                 help="derivation dimension and basis")
    derivations.add_argument("algebra_file")
    derivations.set_defaults(func=_cmd_derivations)

    identify = sub.add_parser("identify", help="catalog candidates")
    identify.add_argument("algebra_file")
    identify.set_defaults(func=_cmd_identify)

    graph = sub.add_parser("graph", help="emit the verified graph")
    graph.add_argument("--emit", choices=("dot", "json"), default="dot")
    view = graph.add_mutually_exclusive_group()
    view.add_argument("--closure", action="store_true")
    view.add_argument("--hasse", action="store_true")
    graph.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT_ERROR
    except files.FileFormatError as exc:
        return _fail_input(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
