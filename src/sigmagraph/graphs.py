"""The three directed class graphs of a nontrivial group, plus graph algebra.

Vertices are the partition classes meeting |G|.  Edge rules:

  hawkes  (ci, cj): cj survives in G modulo the ci-local radical.
  hall    (ci, cj): some Hall ci-subgroup H has cj in N_G(H) / H*C_G(H).
                    That index is invariant under conjugation, so one Hall
                    subgroup per conjugacy class is tried; a class without
                    Hall subgroups simply has no out-edges.  |N_G(H)| is
                    |G| over the length of H's class, which the Hall
                    search already has, so no normaliser is built; H = G
                    gives no edge.
  vm      (ci, cj): some critical subgroup H carries ci and keeps cj in
                    H modulo its ci-local radical.  The critical subgroups
                    are the Schmidt subgroups P . <y> (P the normal Sylow
                    p-subgroup) with p, q in different classes; there the
                    class(q)-radical is H and the class(p)-radical P<y^q>
                    has index q.  So the edges are the Schmidt types (p, q)
                    (predicates.schmidt_types) read as (class(p), class(q)).

The builders share one frame (``_graph``) and differ only in their edge
rule.  Each built graph is kept in the group's memo and returned on a later
call; a caller with another group tag gets a copy under its own tag.  All
outputs are canonically ordered; serialisation is byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import DomainError
from .group import (EngineLimits, PermGroup, Subgroup, _hall_classes, _memo,
                    _product_order, _refuse_other_limits, centralizer)
from .predicates import f_class_subgroup, schmidt_types
from .sigma import SigmaClass, SigmaPartition, primes_of, sigma_of_int, sigma_of_group


@dataclass(frozen=True, eq=False)
class SigmaGraph:
    kind: str
    group_tag: str
    partition: SigmaPartition
    vertices: frozenset[SigmaClass]
    edges: frozenset[tuple[SigmaClass, SigmaClass]]
    primes: tuple[int, ...] = ()  # sorted primes of the group order

    def __post_init__(self):
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise DomainError(f"edge ({a}, {b}) leaves the vertex set")

    @property
    def vertex_primes(self) -> tuple[tuple[SigmaClass, tuple[int, ...]], ...]:
        """Each vertex in canonical order with its primes of the group order."""
        return tuple((cls, tuple(p for p in self.primes if cls.contains(p)))
                     for cls in self.sorted_vertices())

    def sorted_vertices(self) -> list[SigmaClass]:
        return sorted(self.vertices, key=lambda c: c.sort_key)

    def sorted_edges(self) -> list[tuple[SigmaClass, SigmaClass]]:
        return sorted(self.edges, key=lambda e: (e[0].sort_key, e[1].sort_key))


def _graph(kind: str, G: PermGroup, sigma: SigmaPartition, group_tag: str,
           edges) -> SigmaGraph:
    """The frame of the three builders: the graph of kind on G, with the
    edges that edges(vertices) yields, kept in G's memo under
    ("graph", kind, sigma) and returned under the caller's tag (the
    memoised graph itself, or a copy of it)."""
    if G.is_trivial:
        raise DomainError("class graphs are defined for nontrivial groups only")

    def compute():
        vertices = sigma_of_group(G, sigma)
        return SigmaGraph(kind, group_tag, sigma, vertices, frozenset(edges(vertices)),
                          primes_of(G.order))
    graph = _memo(G, ("graph", kind, sigma), compute)
    return graph if graph.group_tag == group_tag else replace(graph, group_tag=group_tag)


# build_hawkes and build_hall accept a limits argument equal to G.limits only,
# because perfbench/make_golden.py passes DEFAULT_LIMITS; ROADMAP item 1 drops
# that argument there, and then this parameter
def build_hawkes(G: PermGroup, sigma: SigmaPartition, limits: EngineLimits | None = None,
                 group_tag: str = "G") -> SigmaGraph:
    _refuse_other_limits(G, limits)

    def edges(vertices):
        for ci in vertices:
            f = f_class_subgroup(G, ci)
            for cj in sigma_of_int(G.order // f.order, sigma):
                yield ci, cj
    return _graph("hawkes", G, sigma, group_tag, edges)


def build_hall(G: PermGroup, sigma: SigmaPartition, limits: EngineLimits | None = None,
               group_tag: str = "G") -> SigmaGraph:
    _refuse_other_limits(G, limits)

    def edges(vertices):
        for ci in vertices:
            class_primes = [p for p in primes_of(G.order) if ci.contains(p)]
            for cls in _hall_classes(G, class_primes):
                h = Subgroup(G, cls[0])
                if h.order == G.order:  # N_G(G) = G C_G(G): no edge, no generators
                    continue
                n_order = G.order // len(cls)  # |N_G(H)|
                hc = _product_order(h, centralizer(G, h))
                for cj in sigma_of_int(n_order // hc, sigma):
                    yield ci, cj
    return _graph("hall", G, sigma, group_tag, edges)


def build_vm(G: PermGroup, sigma: SigmaPartition, group_tag: str = "G") -> SigmaGraph:
    def edges(vertices):
        for p, q in schmidt_types(G):
            ci, cj = sigma.classify(p), sigma.classify(q)
            if ci != cj:
                yield ci, cj
    return _graph("vm", G, sigma, group_tag, edges)


# ---------------------------------------------------------------------------
# graph algebra


def has_loop(graph: SigmaGraph) -> bool:
    return any(a == b for a, b in graph.edges)


def has_circuit(graph: SigmaGraph) -> bool:
    """Directed cycle of any length; a loop counts.  A vertex with no edge
    into the vertices left lies on no cycle among them, so such vertices are
    dropped until every vertex left has one; then following edges from any
    of them must close a cycle.  So there is a circuit exactly when a vertex
    remains."""
    left = set(graph.vertices)
    while True:
        keep = {a for a, b in graph.edges if a in left and b in left}
        if keep == left:
            return bool(left)
        left = keep


def isolated_vertices(graph: SigmaGraph) -> frozenset[SigmaClass]:
    touched = {a for a, _ in graph.edges} | {b for _, b in graph.edges}
    return frozenset(graph.vertices - touched)


def _require_same_partition(g1: SigmaGraph, g2: SigmaGraph):
    if g1.partition != g2.partition:
        raise DomainError("graphs over different partitions do not combine")


def union(g1: SigmaGraph, g2: SigmaGraph) -> SigmaGraph:
    _require_same_partition(g1, g2)
    kind = g1.kind if g1.kind == g2.kind else "union"
    tag = g1.group_tag if g1.group_tag == g2.group_tag else f"union({g1.group_tag},{g2.group_tag})"
    return SigmaGraph(kind, tag, g1.partition, g1.vertices | g2.vertices,
                      g1.edges | g2.edges, tuple(sorted({*g1.primes, *g2.primes})))


def is_subgraph(g1: SigmaGraph, g2: SigmaGraph) -> bool:
    """Vertex and edge containment of g1 in g2."""
    _require_same_partition(g1, g2)
    return g1.vertices <= g2.vertices and g1.edges <= g2.edges


def graphs_equal(g1: SigmaGraph, g2: SigmaGraph) -> bool:
    """Same vertices and edges over the same partition; kind and tag ignored."""
    return (g1.partition == g2.partition and g1.vertices == g2.vertices
            and g1.edges == g2.edges)


# ---------------------------------------------------------------------------
# serialisation


def to_json(graph: SigmaGraph) -> str:
    """One JSON object; its keys are written in sorted order."""
    payload = {
        "edges": [[a.tag, b.tag] for a, b in graph.sorted_edges()],
        "group": graph.group_tag,
        "kind": graph.kind,
        "vertices": [{"primes_in_G": list(ps), "tag": cls.tag}
                     for cls, ps in graph.vertex_primes],
    }
    return json.dumps(payload)


def to_dot(graph: SigmaGraph) -> str:
    """DOT text.  The graph id carries the group tag, which comes from the
    user, so its backslashes and quotes are escaped; vertex ids are class
    tags the program makes."""
    graph_id = f"{graph.kind}_{graph.group_tag}".replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{graph_id}" {{']
    for v in graph.sorted_vertices():
        lines.append(f'  "{v.tag}";')
    for a, b in graph.sorted_edges():
        lines.append(f'  "{a.tag}" -> "{b.tag}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
