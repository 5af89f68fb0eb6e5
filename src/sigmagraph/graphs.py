"""The three directed class graphs of a nontrivial group, plus graph algebra.

Vertices are the partition classes meeting |G|.  Edge rules:

  hawkes  (ci, cj): cj survives in G modulo the ci-local radical.
  hall    (ci, cj): some Hall ci-subgroup H has cj in N_G(H) / H*C_G(H).
                    Every Hall subgroup is tried, not one per class; a class
                    without Hall subgroups simply has no out-edges.
  vm      (ci, cj): some critical subgroup H carries ci and keeps cj in
                    H modulo its ci-local radical.  Candidates come from the
                    two-generated subgroups alone: a critical subgroup is a
                    Schmidt group, and a Schmidt group is generated by two
                    elements, so this pool holds every critical subgroup.

All outputs are canonically ordered; serialisation is byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError
from .group import (DEFAULT_LIMITS, EngineLimits, PermGroup, centralizer,
                    hall_subgroups, normalizer, two_generated_subgroups)
from .predicates import _memo, f_class_subgroup, is_critical
from .sigma import SigmaClass, SigmaPartition, primes_of, sigma_of_int, sigma_of_group


@dataclass(frozen=True, eq=False)
class SigmaGraph:
    kind: str
    group_tag: str
    partition: SigmaPartition
    vertices: frozenset[SigmaClass]
    edges: frozenset[tuple[SigmaClass, SigmaClass]]
    # class -> sorted primes of the group order inside that class
    vertex_primes: tuple[tuple[SigmaClass, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise DomainError(f"edge ({a}, {b}) leaves the vertex set")

    def sorted_vertices(self) -> list[SigmaClass]:
        return sorted(self.vertices, key=lambda c: c.sort_key)

    def sorted_edges(self) -> list[tuple[SigmaClass, SigmaClass]]:
        return sorted(self.edges, key=lambda e: (e[0].sort_key, e[1].sort_key))


def _vertex_primes(order: int, vertices, sigma: SigmaPartition):
    out = []
    for cls in sorted(vertices, key=lambda c: c.sort_key):
        out.append((cls, tuple(p for p in primes_of(order) if cls.contains(p))))
    return tuple(out)


def _require_nontrivial(G: PermGroup):
    if G.is_trivial:
        raise DomainError("class graphs are defined for nontrivial groups only")


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
        return vertices, frozenset(edges)
    vertices, edges = _memo(G, ("graph", "hawkes", sigma), compute)
    return SigmaGraph("hawkes", group_tag, sigma, vertices, edges,
                      _vertex_primes(G.order, vertices, sigma))


def build_hall(G: PermGroup, sigma: SigmaPartition,
               limits: EngineLimits = DEFAULT_LIMITS, group_tag: str = "G") -> SigmaGraph:
    _require_nontrivial(G)
    def compute():
        vertices = sigma_of_group(G, sigma)
        edges = set()
        for ci in vertices:
            class_primes = [p for p in primes_of(G.order) if ci.contains(p)]
            for h in hall_subgroups(G, class_primes, limits):
                n = normalizer(G, h, limits)
                c = centralizer(G, h, limits)
                hc = h.order * c.order // len(h.indices & c.indices)
                for cj in sigma_of_int(n.order // hc, sigma):
                    edges.add((ci, cj))
        return vertices, frozenset(edges)
    vertices, edges = _memo(G, ("graph", "hall", sigma), compute)
    return SigmaGraph("hall", group_tag, sigma, vertices, edges,
                      _vertex_primes(G.order, vertices, sigma))


def build_vm(G: PermGroup, sigma: SigmaPartition,
             limits: EngineLimits = DEFAULT_LIMITS, group_tag: str = "G") -> SigmaGraph:
    _require_nontrivial(G)
    def compute():
        vertices = sigma_of_group(G, sigma)
        edges = set()
        for s in two_generated_subgroups(G, limits):
            # critical subgroups are Schmidt groups: two primes, two classes
            if len(sigma_of_int(s.order, sigma)) != 2:
                continue
            if not is_critical(s.group, sigma, limits):
                continue
            for ci in sigma_of_int(s.order, sigma):
                f = f_class_subgroup(s.group, ci, limits)
                for cj in sigma_of_int(s.order // f.order, sigma):
                    edges.add((ci, cj))
        return vertices, frozenset(edges)
    vertices, edges = _memo(G, ("graph", "vm", sigma), compute)
    return SigmaGraph("vm", group_tag, sigma, vertices, edges,
                      _vertex_primes(G.order, vertices, sigma))


# ---------------------------------------------------------------------------
# graph algebra


def has_loop(graph: SigmaGraph) -> bool:
    return any(a == b for a, b in graph.edges)


def has_circuit(graph: SigmaGraph) -> bool:
    """Directed cycle of any length; a loop counts."""
    if has_loop(graph):
        return True
    adjacency = {v: [] for v in graph.sorted_vertices()}
    for a, b in graph.sorted_edges():
        adjacency[a].append(b)
    state: dict[SigmaClass, int] = {}  # 1 = on stack, 2 = done

    def visit(v) -> bool:
        state[v] = 1
        for w in adjacency[v]:
            mark = state.get(w)
            if mark == 1 or (mark is None and visit(w)):
                return True
        state[v] = 2
        return False

    return any(state.get(v) is None and visit(v) for v in adjacency)


def isolated_vertices(graph: SigmaGraph) -> frozenset[SigmaClass]:
    touched = {a for a, _ in graph.edges} | {b for _, b in graph.edges}
    return frozenset(graph.vertices - touched)


def weak_components(graph: SigmaGraph) -> list[frozenset[SigmaClass]]:
    """Connected components ignoring direction, canonically ordered."""
    neighbours = {v: set() for v in graph.vertices}
    for a, b in graph.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen: set[SigmaClass] = set()
    out = []
    for v in graph.sorted_vertices():
        if v in seen:
            continue
        comp, queue = {v}, [v]
        while queue:
            x = queue.pop()
            for y in neighbours[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        out.append(frozenset(comp))
    return out


def _require_same_partition(g1: SigmaGraph, g2: SigmaGraph):
    if g1.partition != g2.partition:
        raise DomainError("graphs over different partitions do not combine")


def union(g1: SigmaGraph, g2: SigmaGraph) -> SigmaGraph:
    _require_same_partition(g1, g2)
    kind = g1.kind if g1.kind == g2.kind else "union"
    tag = g1.group_tag if g1.group_tag == g2.group_tag else f"union({g1.group_tag},{g2.group_tag})"
    primes: dict[SigmaClass, set[int]] = {}
    for cls, ps in g1.vertex_primes + g2.vertex_primes:
        primes.setdefault(cls, set()).update(ps)
    merged = tuple((cls, tuple(sorted(primes.get(cls, ()))))
                   for cls in sorted(g1.vertices | g2.vertices, key=lambda c: c.sort_key))
    return SigmaGraph(kind, tag, g1.partition, g1.vertices | g2.vertices,
                      g1.edges | g2.edges, merged)


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
    payload = {
        "kind": graph.kind,
        "group": graph.group_tag,
        "vertices": [{"tag": cls.tag, "primes_in_G": list(ps)}
                     for cls, ps in graph.vertex_primes],
        "edges": [[a.tag, b.tag] for a, b in graph.sorted_edges()],
    }
    return json.dumps(payload, sort_keys=True)


def to_dot(graph: SigmaGraph) -> str:
    lines = [f'digraph "{graph.kind}_{graph.group_tag}" {{']
    for v in graph.sorted_vertices():
        lines.append(f'  "{v.tag}";')
    for a, b in graph.sorted_edges():
        lines.append(f'  "{a.tag}" -> "{b.tag}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
