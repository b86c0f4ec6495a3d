"""Degeneration graph: assembly, closure, reduction, comparison, emission."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert import catalog, files
from nilcert import graph as graphmod
from nilcert.degeneration import Verdict


def verdict(source, target):
    return Verdict("VERIFIED", source, target, {"witness_id": f"{source}->{target}"})


def test_empty_input_gives_only_trivial_edges():
    g = graphmod.build([])
    assert all(b == "C5" for _, b in g.edges)
    assert len(g.edges) == 24
    assert g.provenance[("A_01", "C5")] == "trivial"


def test_build_rejects_unverified_input():
    bad = Verdict("LIMIT_MISMATCH", "A_01", "A_02", {})
    with pytest.raises(ValueError):
        graphmod.build([bad])


def test_build_rejects_der_violations_and_cycles():
    with pytest.raises(ValueError):
        graphmod.build([verdict("A_24", "A_23")])  # 17 > 14
    # a cycle has an edge that does not increase dim Der (here 9 -> 8)
    with pytest.raises(ValueError):
        graphmod.build([verdict("A_09", "A_11"), verdict("A_11", "A_09")])


def test_closure_contains_transitive_edge_missing_from_covering_set():
    g = graphmod.build([verdict("A_09", "A_11"), verdict("A_11", "A_12")])
    closure = graphmod.transitive_closure(g.edges, g.nodes)
    assert ("A_09", "A_12") in closure
    reduction = graphmod.hasse_reduction(g.edges, g.nodes)
    assert ("A_09", "A_12") not in reduction


def test_reduction_drops_shortcut_edges():
    edges = {("a", "b"), ("b", "c"), ("a", "c")}
    reduced = graphmod.hasse_reduction(edges, ("a", "b", "c"))
    assert reduced == {("a", "b"), ("b", "c")}


def test_closure_is_idempotent_and_reduction_inverts():
    edges = {("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")}
    nodes = ("a", "b", "c", "d")
    closure = graphmod.transitive_closure(edges, nodes)
    assert graphmod.transitive_closure(closure, nodes) == closure
    reduced = graphmod.hasse_reduction(edges, nodes)
    assert graphmod.transitive_closure(reduced, nodes) == closure


@settings(max_examples=50, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))
               .filter(lambda e: e[0] < e[1]), max_size=12))
def test_random_dag_closure_reduction_properties(edges):
    nodes = tuple(range(7))
    closure = graphmod.transitive_closure(edges, nodes)
    assert graphmod.transitive_closure(closure, nodes) == closure
    reduced = graphmod.hasse_reduction(edges, nodes)
    assert graphmod.transitive_closure(reduced, nodes) == closure
    assert reduced <= closure


def full_graph():
    verdicts = []
    for wid, witness in files.load_all_witnesses():
        verdicts.append(verdict(witness.source, witness.target))
    return graphmod.build(verdicts)


def test_reference_comparison_is_clean():
    g = full_graph()
    diff = graphmod.compare_with_reference(g, files.load_reference_edges())
    assert diff.reduction_matches and diff.closure_matches
    assert diff.redundant_reference_edges == [("A_11", "A_22"), ("A_15", "A_22")]


def test_removed_reference_edge_is_reported():
    g = full_graph()
    reference = [e for e in files.load_reference_edges()
                 if e != ("A_16", "A_19")]
    diff = graphmod.compare_with_reference(g, reference)
    assert ("A_16", "A_19") in diff.extra_reduction
    assert ("A_16", "A_19") in diff.extra_closure


def test_fabricated_reference_edge_is_reported_and_screened():
    g = full_graph()
    reference = files.load_reference_edges() + [("A_16", "A_18")]
    diff = graphmod.compare_with_reference(g, reference)
    assert ("A_16", "A_18") in diff.missing_closure
    from nilcert.certificates import necessary_conditions
    assert not necessary_conditions("A_16", "A_18").all_pass


def test_unique_source_is_the_rigid_algebra():
    assert graphmod.sources(full_graph()) == ["A_01"]


def test_every_closure_edge_increases_der_dim():
    g = full_graph()
    for a, b in graphmod.transitive_closure(g.edges, g.nodes):
        assert catalog.DER_DIMS[a] < catalog.DER_DIMS[b]


def test_dot_output_shape():
    g = full_graph()
    dot = graphmod.emit_dot(g, "hasse")
    assert dot.startswith("digraph degenerations {")
    assert dot.count("rank=same") == 11  # der levels 5..25 as printed
    assert '"A_01" -> "A_02";' in dot
    assert graphmod.emit_dot(g, "hasse") == dot  # deterministic


def test_empty_graph_emits_valid_documents():
    g = graphmod.DegenerationGraph(tuple(catalog.names()), ())
    dot = graphmod.emit_dot(g, "verified")
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    payload = json.loads(graphmod.emit_json(g, "verified"))
    assert payload["edges"] == []
    assert len(payload["nodes"]) == 25

