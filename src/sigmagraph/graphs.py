"""The three directed class graphs of a nontrivial group, plus graph algebra.

Vertices are the partition classes meeting |G|.  Edge rules:

  hawkes  (ci, cj): cj survives in G modulo the ci-local radical.
  hall    (ci, cj): some Hall ci-subgroup H has cj in N_G(H) / H*C_G(H).
                    That index is invariant under conjugation, so one Hall
                    subgroup per conjugacy class is tried; a class without
                    Hall subgroups simply has no out-edges.
  vm      (ci, cj): some critical subgroup H carries ci and keeps cj in
                    H modulo its ci-local radical.  The critical subgroups
                    are the Schmidt subgroups P . <y> (P the normal Sylow
                    p-subgroup) with p, q in different classes; there the
                    class(q)-radical is H and the class(p)-radical P<y^q>
                    has index q.  So the edges are the Schmidt types (p, q)
                    (predicates.schmidt_types) read as (class(p), class(q)).

Each built graph is kept in the group's memo and returned on a later call;
a caller with another group tag gets a copy under its own tag.  All outputs
are canonically ordered; serialisation is byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import CrossCheckError, DomainError
from .group import (DEFAULT_LIMITS, EngineLimits, PermGroup, Subgroup,
                    _hall_classes, _memo, centralizer, normalizer)
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


def _require_nontrivial(G: PermGroup):
    if G.is_trivial:
        raise DomainError("class graphs are defined for nontrivial groups only")


def _tagged(graph: SigmaGraph, group_tag: str) -> SigmaGraph:
    """The memoised graph itself, or a copy of it under the caller's tag."""
    return graph if graph.group_tag == group_tag else replace(graph, group_tag=group_tag)


def build_hawkes(G: PermGroup, sigma: SigmaPartition,
                 limits: EngineLimits = DEFAULT_LIMITS, group_tag: str = "G") -> SigmaGraph:
    _require_nontrivial(G)
    def compute():
        vertices = sigma_of_group(G, sigma)
        edges = set()
        for ci in vertices:
            f = f_class_subgroup(G, ci, limits)
            for cj in sigma_of_int(G.order // f.order, sigma):
                edges.add((ci, cj))
        return SigmaGraph("hawkes", group_tag, sigma, vertices, frozenset(edges),
                          primes_of(G.order))
    return _tagged(_memo(G, ("graph", "hawkes", sigma), compute, limits), group_tag)


def build_hall(G: PermGroup, sigma: SigmaPartition,
               limits: EngineLimits = DEFAULT_LIMITS, group_tag: str = "G") -> SigmaGraph:
    _require_nontrivial(G)
    def compute():
        vertices = sigma_of_group(G, sigma)
        edges = set()
        for ci in vertices:
            class_primes = [p for p in primes_of(G.order) if ci.contains(p)]
            for cls in _hall_classes(G, class_primes, limits):
                h = Subgroup(G, *cls[0])
                n = normalizer(G, h, limits)
                if n.order * len(cls) != G.order:
                    raise CrossCheckError("a Hall subgroup's normaliser order disagrees "
                                          "with the length of its conjugacy class")
                c = centralizer(G, h, limits)
                hc = h.order * c.order // len(h.indices & c.indices)
                for cj in sigma_of_int(n.order // hc, sigma):
                    edges.add((ci, cj))
        return SigmaGraph("hall", group_tag, sigma, vertices, frozenset(edges),
                          primes_of(G.order))
    key = ("graph", "hall", sigma, limits.max_subgroup_count)  # the Hall search's cap
    return _tagged(_memo(G, key, compute, limits), group_tag)


def build_vm(G: PermGroup, sigma: SigmaPartition,
             limits: EngineLimits = DEFAULT_LIMITS, group_tag: str = "G") -> SigmaGraph:
    _require_nontrivial(G)
    def compute():
        vertices = sigma_of_group(G, sigma)
        edges = set()
        for p, q in schmidt_types(G, limits):
            ci, cj = sigma.classify(p), sigma.classify(q)
            if ci != cj:
                edges.add((ci, cj))
        return SigmaGraph("vm", group_tag, sigma, vertices, frozenset(edges),
                          primes_of(G.order))
    return _tagged(_memo(G, ("graph", "vm", sigma), compute, limits), group_tag)


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
