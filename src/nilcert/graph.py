"""The degeneration graph: assembly from verified witnesses, closure,
covering (Hasse) reduction, reference comparison, and DOT/JSON emission.

Nodes are the catalog names; every algebra trivially degenerates to the zero
algebra C5, so those edges are always present.  Every edge must strictly
increase the derivation dimension (enforced), so dim Der grows along every
path and the graph has no cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from . import catalog


@dataclass
class DegenerationGraph:
    nodes: tuple
    edges: tuple                      # proper verified edges + trivial edges
    provenance: dict = field(default_factory=dict)

    @cached_property
    def closure(self) -> set:
        return transitive_closure(self.edges, self.nodes)

    @cached_property
    def hasse(self) -> set:
        return hasse_reduction(self.edges, self.nodes, self.closure)


def build(verdicts) -> DegenerationGraph:
    """Graph from VERIFIED verdicts plus the trivial edges into C5."""
    nodes = tuple(catalog.names())
    edges = []
    provenance = {}
    for verdict in verdicts:
        if not verdict.verified:
            raise ValueError(f"unverified input edge {verdict.source} -> "
                             f"{verdict.target} ({verdict.status})")
        if verdict.source == verdict.target:
            continue
        edge = (verdict.source, verdict.target)
        if edge not in provenance:
            edges.append(edge)
            provenance[edge] = verdict.details.get("witness_id", "witness")
    for name in nodes:
        if name != "C5" and (name, "C5") not in provenance:
            edges.append((name, "C5"))
            provenance[(name, "C5")] = "trivial"
    for a, b in edges:
        if catalog.DER_DIMS[a] >= catalog.DER_DIMS[b]:
            raise ValueError(f"edge {a} -> {b} does not increase dim Der")
    return DegenerationGraph(nodes, tuple(edges), provenance)


def transitive_closure(edges, nodes) -> set:
    """All ordered pairs (a, b), a != b, with a path from a to b."""
    outgoing = {n: set() for n in nodes}
    for a, b in edges:
        outgoing[a].add(b)
    closure = set()
    for start in nodes:
        stack = list(outgoing[start])
        seen = set()
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(outgoing[n])
        closure.update((start, n) for n in seen if n != start)
    return closure


def hasse_reduction(edges, nodes, closure=None) -> set:
    """Covering edges of the reachability order; unique for a DAG.  The
    closure of the edges is computed unless it is passed."""
    if closure is None:
        closure = transitive_closure(edges, nodes)
    reduced = set()
    for (a, b) in closure:
        if not any((a, w) in closure and (w, b) in closure
                   for w in nodes if w != a and w != b):
            reduced.add((a, b))
    return reduced


@dataclass
class GraphDiff:
    missing_reduction: list
    extra_reduction: list
    missing_closure: list
    extra_closure: list
    redundant_reference_edges: list  # printed edges implied by transitivity

    @property
    def reduction_matches(self):
        return not self.missing_reduction and not self.extra_reduction

    @property
    def closure_matches(self):
        return not self.missing_closure and not self.extra_closure


def compare_with_reference(graph: DegenerationGraph, reference_edges) -> GraphDiff:
    """Diff against an independently transcribed edge list.

    Both sides are compared as orders: at the reachability (closure) level
    and at the covering-edge (reduction) level, each computed for both
    graphs.  Reference edges that are transitively implied by other reference
    edges are reported separately: they are a finding about the printed
    figure, not a mismatch of the orders.
    """
    ref = set(reference_edges)
    ref_closure = transitive_closure(ref, graph.nodes)
    ref_reduction = hasse_reduction(ref, graph.nodes, ref_closure)
    return GraphDiff(
        missing_reduction=sorted(ref_reduction - graph.hasse),
        extra_reduction=sorted(graph.hasse - ref_reduction),
        missing_closure=sorted(ref_closure - graph.closure),
        extra_closure=sorted(graph.closure - ref_closure),
        redundant_reference_edges=sorted(ref - ref_reduction),
    )


def sources(graph: DegenerationGraph):
    """Nodes with no incoming proper edge (candidates for rigidity)."""
    incoming = {n: 0 for n in graph.nodes}
    for _, b in graph.edges:
        incoming[b] += 1
    return sorted(n for n, k in incoming.items() if k == 0)


# -- emission ------------------------------------------------------------------


def _edge_view(graph: DegenerationGraph, view: str):
    if view == "verified":
        return sorted(graph.edges)
    if view == "closure":
        return sorted(graph.closure)
    if view == "hasse":
        return sorted(graph.hasse)
    raise ValueError(f"unknown view {view!r}")


def emit_json(graph: DegenerationGraph, view="hasse") -> str:
    payload = {
        "view": view,
        "nodes": [{"name": n, "der_dim": catalog.DER_DIMS[n]}
                  for n in graph.nodes],
        "edges": [{"source": a, "target": b,
                   "provenance": graph.provenance.get((a, b), view)}
                  for a, b in _edge_view(graph, view)],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def emit_dot(graph: DegenerationGraph, view="hasse") -> str:
    """Graphviz output ranked by derivation dimension, one rank per level."""
    levels = {}
    for name in graph.nodes:
        levels.setdefault(catalog.DER_DIMS[name], []).append(name)
    lines = ["digraph degenerations {", "  rankdir=TB;",
             "  node [shape=box, style=rounded];"]
    for level in sorted(levels):
        members = " ".join(f'"{n}";' for n in levels[level])
        lines.append(f'  {{ rank=same; "level_{level}" '
                     f'[label="{level}", shape=plaintext]; {members} }}')
    level_keys = sorted(levels)
    for a, b in zip(level_keys, level_keys[1:]):
        lines.append(f'  "level_{a}" -> "level_{b}" [style=invis];')
    for a, b in _edge_view(graph, view):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
