"""Full verification run: catalog self-check, witness verification, graph
reconstruction, non-degeneration claims, screening completeness, and the
advisory numeric cross-check, assembled into one machine-readable report.

The run is deterministic for a fixed seed: every randomized probe draws from
a generator derived from (seed, task label) via sha256, so results do not
depend on execution order or the worker pool size.
"""

from __future__ import annotations

import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__, catalog, files
from . import graph as graphmod
from .certificates import check_claim, screening_completeness
from .degeneration import verify
from .sampling import derive_rng


def _verify_by_id(witness_id, t_samples=()):
    """Worker entry: the verdict carries JSON-ready details only, the numeric
    cross-check included, so no exact tower values cross the process pool."""
    verdict = verify(files.load_shipped_witness(witness_id), t_samples)
    verdict.details["witness_id"] = witness_id
    return witness_id, verdict


def _catalog_section():
    entries = []
    ok = True
    for name in catalog.names():
        entry = catalog.get(name)
        identities = entry.table.check_identities()
        fp = catalog.catalog_fingerprint(name)
        der_ok = fp.dim_der == entry.expected_der_dim
        nilpotent = fp.nilpotency_index > 0
        entry_ok = identities.commutative and identities.associative \
            and der_ok and nilpotent
        ok = ok and entry_ok
        entries.append({
            "name": name,
            "commutative": identities.commutative,
            "associative": identities.associative,
            "nilpotent": nilpotent,
            "expected_der_dim": entry.expected_der_dim,
            "computed_der_dim": fp.dim_der,
            "der_dim_matches": der_ok,
            "fingerprint": fp.as_dict(),
        })
    return {
        "ok": ok,
        "entries": entries,
        "fingerprint_collisions": [list(g) for g in catalog.fingerprint_collisions()],
    }, ok


def _witness_section(t_samples, jobs, log):
    ids = files.witness_ids()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(_verify_by_id, ids,
                                    [t_samples] * len(ids)))
    else:
        results = dict(_verify_by_id(wid, t_samples) for wid in ids)
    verdicts = [results[wid] for wid in ids]
    records = []
    ok = True
    for wid, verdict in zip(ids, verdicts):
        ok = ok and verdict.verified
        record = {"id": wid, "source": verdict.source, "target": verdict.target,
                  "status": verdict.status}
        record.update({k: v for k, v in verdict.details.items()
                       if k != "witness_id"})
        records.append(record)
        if log:
            log(f"witness {verdict.source} -> {verdict.target}: {verdict.status}")
    return records, verdicts, ok


def _graph_section(verdicts):
    # a failed witness is reported by the witness section; its edge stays out
    g = graphmod.build([v for v in verdicts if v.verified])
    reference = files.load_reference_edges()
    diff = graphmod.compare_with_reference(g, reference)
    unique_sources = graphmod.sources(g)
    hasse = sorted(graphmod.hasse_reduction(g.edges, g.nodes))
    ok = diff.reduction_matches and diff.closure_matches \
        and unique_sources == ["A_01"]
    section = {
        "ok": ok,
        "reference_edge_count": len(reference),
        "reduction_matches_reference": diff.reduction_matches,
        "closure_matches_reference": diff.closure_matches,
        "missing_reduction": [list(e) for e in diff.missing_reduction],
        "extra_reduction": [list(e) for e in diff.extra_reduction],
        "missing_closure": [list(e) for e in diff.missing_closure],
        "extra_closure": [list(e) for e in diff.extra_closure],
        "redundant_reference_edges":
            [list(e) for e in diff.redundant_reference_edges],
        "sources_without_incoming": unique_sources,
        "hasse_edges": [list(e) for e in hasse],
    }
    return section, g, ok


def _mark_transitivity(witness_records, g):
    hasse = graphmod.hasse_reduction(g.edges, g.nodes)
    closure = graphmod.transitive_closure(g.edges, g.nodes)
    for record in witness_records:
        edge = (record["source"], record["target"])
        record["hasse_edge"] = edge in hasse
        record["implied_by_transitivity"] = edge not in hasse and edge in closure


def _claims_section(seed, samples, borel_samples, log):
    claims = files.load_shipped_claims()
    records = []
    ok = True
    for index, claim in enumerate(claims):
        rng = derive_rng(seed, f"claim:{index}:{claim.describe()}")
        outcome = check_claim(claim, samples, borel_samples, rng)
        ok = ok and outcome.valid
        records.append({
            "claim": claim.describe(),
            "sources": list(claim.sources),
            "targets": list(claim.targets),
            "conditions": claim.spec.describe(),
            "valid": outcome.valid,
            "source_checks": [
                {"name": s.name, "used_witness": s.used_witness,
                 "satisfied": s.satisfied,
                 "borel_violation": s.borel_violation}
                for s in outcome.source_checks],
            "escapes": {
                name: {"status": e.status, "certificate": e.certificate,
                       "random_hits": e.random_hits, "samples": e.samples,
                       "hit_example": e.hit_example}
                for name, e in outcome.escapes.items()},
        })
        if log:
            log(f"claim {claim.describe()}: {'ok' if outcome.valid else 'FAILED'}")
    return records, ok


def _screening_section(g, claims_records):
    closure = graphmod.transitive_closure(g.edges, g.nodes)
    pairs = []
    for record in claims_records:
        if record["valid"]:
            for s in record["sources"]:
                for t in record["targets"]:
                    pairs.append((s, t))
    report = screening_completeness(closure, pairs)
    ok = not report["unexplained"]
    return {
        "ok": ok,
        "no_path_pairs": len(report["explained"]) + len(report["unexplained"]),
        "explained": {f"{x} !-> {y}": reasons
                      for (x, y), reasons in sorted(report["explained"].items())},
        "unexplained": [list(p) for p in report["unexplained"]],
        "unexplained_count": len(report["unexplained"]),
        "note": "A_p^k conditions with p = 1 are read as powers of the whole "
                "algebra, hence basis independent.",
    }, ok


def run_all(seed=0, samples=1000, borel_samples=200, t_samples=(1e-4,),
            jobs=1, log=None):
    """Run every check; returns the full report dict with report["ok"]."""
    started = time.perf_counter()
    timings = {}

    t0 = time.perf_counter()
    catalog_section, catalog_ok = _catalog_section()
    timings["catalog"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    witness_records, verdicts, witnesses_ok = _witness_section(
        t_samples, jobs, log)
    timings["witnesses"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph_section, g, graph_ok = _graph_section(verdicts)
    _mark_transitivity(witness_records, g)
    timings["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    claims_records, claims_ok = _claims_section(seed, samples, borel_samples, log)
    timings["claims"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    screening_section, screening_ok = _screening_section(g, claims_records)
    timings["screening"] = time.perf_counter() - t0

    ok = catalog_ok and witnesses_ok and graph_ok and claims_ok and screening_ok
    return {
        "ok": ok,
        "meta": {
            "seed": seed,
            "samples": samples,
            "borel_samples": borel_samples,
            "t_samples": list(t_samples),
            "jobs": jobs,
            "package_version": __version__,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
            "elapsed_seconds": round(time.perf_counter() - started, 3),
        },
        "catalog": catalog_section,
        "witnesses": witness_records,
        "graph": graph_section,
        "claims": claims_records,
        "screening": screening_section,
    }


def strip_nondeterministic(report):
    """Report with timing/environment data removed, for determinism diffs."""
    import copy

    out = copy.deepcopy(report)
    out["meta"].pop("timings_seconds", None)
    out["meta"].pop("elapsed_seconds", None)
    out["meta"].pop("platform", None)
    out["meta"].pop("python", None)
    return out
