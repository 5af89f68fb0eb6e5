import gc
import json
import sys
from pathlib import Path

import pytest

from oracles import (brute_has_circuit, hall_edges_every_member, rebuilt,
                     vm_edges_from_candidates, weak_components, zoo_tags)
import sigmagraph.graphs
import sigmagraph.group
from sigmagraph.errors import DomainError, ResourceLimitError
from sigmagraph.graphs import (SigmaGraph, build_hall, build_hawkes, build_vm,
                               graphs_equal, has_circuit, has_loop,
                               is_subgraph, isolated_vertices, to_dot, to_json,
                               union)
from sigmagraph.group import (DEFAULT_LIMITS, EngineLimits, PermGroup, Subgroup, _hall_classes,
                              all_subgroups, hall_subgroups, maximal_subgroups, normalizer,
                              two_generated_subgroups)
from sigmagraph.predicates import is_critical, is_schmidt
from sigmagraph.sigma import ATOMIC, SigmaPartition, primes_of, sigma_of_group
from sigmagraph.zoo import (alternating, build_by_tag, direct_product, regular_wreath, sl2_3,
                            standard_partitions, symmetric)

TWO = SigmaPartition(explicit_classes=(frozenset({2}),))


def tags(edges):
    return sorted((a.tag, b.tag) for a, b in edges)


def test_s3_graphs():
    s3 = build_by_tag("S3")
    for build in (build_hawkes, build_hall, build_vm):
        assert tags(build(s3, ATOMIC).edges) == [("atomic:3", "atomic:2")]


def test_s4_graphs():
    s4 = build_by_tag("S4")
    assert tags(build_hawkes(s4, ATOMIC).edges) == [
        ("atomic:2", "atomic:2"), ("atomic:2", "atomic:3"), ("atomic:3", "atomic:2")]
    assert tags(build_hall(s4, ATOMIC).edges) == [("atomic:3", "atomic:2")]
    assert tags(build_vm(s4, ATOMIC).edges) == [
        ("atomic:2", "atomic:3"), ("atomic:3", "atomic:2")]


def test_a5_graphs():
    a5 = build_by_tag("A5")
    assert len(build_hawkes(a5, ATOMIC).edges) == 9  # complete with loops
    expected = [("atomic:2", "atomic:3"), ("atomic:3", "atomic:2"),
                ("atomic:5", "atomic:2")]
    assert tags(build_hall(a5, ATOMIC).edges) == expected
    assert tags(build_vm(a5, ATOMIC).edges) == expected


def test_s6_graphs():
    s6 = build_by_tag("S6")
    assert len(build_hawkes(s6, ATOMIC).edges) == 9
    assert tags(build_hall(s6, ATOMIC).edges) == [
        ("atomic:3", "atomic:2"), ("atomic:5", "atomic:2")]
    assert tags(build_vm(s6, ATOMIC).edges) == [
        ("atomic:2", "atomic:3"), ("atomic:3", "atomic:2"),
        ("atomic:5", "atomic:2")]


def test_hall_one_subgroup_per_class_matches_every_member(corpus_groups, partitions):
    """N_G(H)/HC_G(H) is invariant under conjugation: the graph from one
    Hall subgroup per class is the graph from all of them, on the whole
    corpus under the standard partitions."""
    for _, g in corpus_groups:
        for sigma in partitions:
            assert build_hall(g, sigma).edges == hall_edges_every_member(g, sigma)


def test_hall_centralises_one_subgroup_per_class(monkeypatch):
    """On S6 under the atomic partition each prime has one class of Hall
    (Sylow) subgroups, so build_hall takes three centralisers where the 91
    Hall subgroups would take 91, and no normaliser: |N_G(H)| is |G| over
    the class length."""
    g = symmetric(6)
    calls = []
    real = sigmagraph.graphs.centralizer

    def spy(*args):
        calls.append(args[1].order)
        return real(*args)

    monkeypatch.setattr(sigmagraph.graphs, "centralizer", spy)
    monkeypatch.setattr(sigmagraph.group, "normalizer", _refuse("normalizer"))
    build_hall(g, ATOMIC)
    primes = (2, 3, 5)
    assert [len(_hall_classes(g, (p,))) for p in primes] == [1, 1, 1]
    assert sum(len(hall_subgroups(g, (p,))) for p in primes) == 91
    assert sorted(calls) == [5, 9, 16]
    assert not hasattr(sigmagraph.graphs, "normalizer")


def test_hall_class_length_is_the_normaliser_index(corpus_groups, partitions):
    """|N_G(H)| times the length of H's class is |G| for the representative
    H of every class of Hall subgroups that build_hall reads, on every
    corpus group under every standard partition (719 classes, 353 of them
    distinct): the normaliser route that build_hall does not take agrees
    with the class length it reads."""
    checked = 0
    for tag, g in corpus_groups:
        prime_sets = {tuple(p for p in primes_of(g.order) if ci.contains(p))
                      for sigma in partitions for ci in sigma_of_group(g, sigma)}
        for primes in sorted(prime_sets):
            for cls in _hall_classes(g, primes):
                h = Subgroup(g, cls[0])
                assert normalizer(g, h).order * len(cls) == g.order, (tag, primes)
                checked += 1
    assert checked == 353


ABOVE_TABLE_LIMIT = {"S5xS4": lambda: direct_product(symmetric(5), symmetric(4)),
                     "C3wrS3": lambda: regular_wreath(3, symmetric(3))}


@pytest.mark.parametrize("tag", sorted(ABOVE_TABLE_LIMIT))
def test_graphs_above_the_table_limit_match_pinned_outputs(tag):
    """S5 x S4 (order 2880) and C3 wr S3 (order 4374) are past the table
    limit, so every read of their element table composes its entries from
    images (``_Universe.gather``).  Their graphs under
    each standard partition (keyed tag/kind/index) equal outputs taken once
    from the normal-lattice route and the search over every pi-element."""
    pinned = json.loads((Path(__file__).parent / "graphs_above_table_limit.json").read_text())
    g = ABOVE_TABLE_LIMIT[tag]()
    assert g.order > sigmagraph.group._TABLE_LIMIT
    for kind, build in (("hawkes", build_hawkes), ("hall", build_hall), ("vm", build_vm)):
        for k, sigma in enumerate(standard_partitions()):
            assert to_json(build(g, sigma, group_tag=tag)) == pinned[f"{tag}/{kind}/{k}"]
    assert not g.universe().table


def test_edgeless_for_nilpotent():
    for tag in ("C6", "C30", "Q8", "D4"):
        g = build_by_tag(tag)
        for build in (build_hawkes, build_hall, build_vm):
            graph = build(g, ATOMIC)
            assert graph.edges == frozenset()
            assert isolated_vertices(graph) == graph.vertices


def test_hall_graph_is_decided_by_each_groups_count_cap():
    """Two groups on A5's generators, one under a count cap that its Hall
    search exceeds: the capped group raises whichever was built first, and
    its cached cap error does not reach the other group."""
    sigma = SigmaPartition(explicit_classes=(frozenset({2, 3}),))
    a5 = alternating(5)
    capped = rebuilt(a5, max_subgroup_count=1)
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        build_hall(capped, sigma)
    built = build_hall(a5, sigma)
    assert tags(built.edges) == [("residual", "explicit:0")]
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        build_hall(capped, sigma)
    assert build_hall(a5, sigma) is built


@pytest.mark.parametrize("build", (build_hawkes, build_hall), ids=("hawkes", "hall"))
def test_hawkes_and_hall_builders_accept_only_the_groups_own_limits(build):
    """The hawkes and hall builders still take a limits argument before the
    tag, equal to the group's own caps only; other caps are refused, not
    applied."""
    g = symmetric(4)
    graph = build(g, ATOMIC, DEFAULT_LIMITS, "S4")
    assert graph.group_tag == "S4" and graphs_equal(graph, build(g, ATOMIC))
    with pytest.raises(DomainError, match="caps it was built with"):
        build(g, ATOMIC, EngineLimits(max_subgroup_count=29), "S4")


@pytest.mark.parametrize("build", (build_hawkes, build_hall, build_vm),
                         ids=("hawkes", "hall", "vm"))
def test_memoised_graph_is_retagged_without_recomputing(build, monkeypatch):
    """A second build on one group reads the graph kept in the group's memo:
    under another tag it returns a copy with that tag, and it computes
    nothing (every group-theoretic route the builders call is refused)."""
    g = symmetric(4)
    first = build(g, ATOMIC, group_tag="a")
    for name in ("sigma_of_group", "sigma_of_int", "f_class_subgroup", "_hall_classes",
                 "_product_order", "centralizer", "schmidt_types", "primes_of"):
        monkeypatch.setattr(sigmagraph.graphs, name, _refuse(name))
    second = build(g, ATOMIC, group_tag="b")
    assert (first.group_tag, second.group_tag) == ("a", "b")
    assert graphs_equal(first, second) and first.kind == second.kind
    assert build(g, ATOMIC, group_tag="a") is first


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refused


def test_equal_partitions_share_one_graph_memo_entry(monkeypatch):
    """Two separately built equal partitions hash equal, so the second one
    reads the graph the first one built."""
    g = symmetric(4)
    first = build_hawkes(g, SigmaPartition(explicit_classes=(frozenset({2}),)))
    keys = set(g._cache)
    monkeypatch.setattr(sigmagraph.graphs, "f_class_subgroup", _refuse("f_class_subgroup"))
    second = build_hawkes(g, SigmaPartition(explicit_classes=(frozenset({2}),)))
    assert second is first and set(g._cache) == keys


def test_wreath_two_class_strictness():
    """The order-384 witness: hall < vm < hawkes, with a loop on the 2-class
    and no hall edge out of it."""
    w = build_by_tag("wreath_c2_s3")
    hawkes = build_hawkes(w, TWO)
    hall = build_hall(w, TWO)
    vm = build_vm(w, TWO)
    assert tags(hawkes.edges) == [("explicit:0", "explicit:0"),
                                  ("explicit:0", "residual"),
                                  ("residual", "explicit:0")]
    assert tags(vm.edges) == [("explicit:0", "residual"),
                              ("residual", "explicit:0")]
    assert tags(hall.edges) == [("residual", "explicit:0")]
    assert is_subgraph(hall, vm) and is_subgraph(vm, hawkes)
    assert hall.edges < vm.edges < hawkes.edges
    assert has_loop(hawkes) and not has_loop(vm)


def test_vertices_are_group_classes():
    g = build_by_tag("s3xc5")
    graph = build_vm(g, ATOMIC)
    assert {v.tag for v in graph.vertices} == {"atomic:2", "atomic:3", "atomic:5"}
    assert isolated_vertices(graph) == frozenset({ATOMIC.classify(5)})
    assert graph.vertex_primes == ((ATOMIC.classify(2), (2,)),
                                   (ATOMIC.classify(3), (3,)),
                                   (ATOMIC.classify(5), (5,)))


def test_trivial_group_rejected():
    with pytest.raises(DomainError):
        build_hawkes(PermGroup(2, []), ATOMIC)


@pytest.mark.parametrize("tag", zoo_tags())
def test_circuits_match_bruteforce(tag):
    """The three graphs of every zoo group under the standard partitions."""
    g = build_by_tag(tag)
    for sigma in standard_partitions():
        for build in (build_hawkes, build_hall, build_vm):
            graph = build(g, sigma)
            assert has_circuit(graph) == brute_has_circuit(graph.vertices,
                                                           graph.edges)


def test_circuits_match_bruteforce_on_every_small_digraph():
    """Every digraph on at most three vertices, loops included: 1 + 2 + 16 +
    512 = 531 edge sets."""
    classes = [ATOMIC.classify(p) for p in (2, 3, 5)]
    count = 0
    for k in range(4):
        vertices = frozenset(classes[:k])
        pairs = [(a, b) for a in classes[:k] for b in classes[:k]]
        for mask in range(2 ** len(pairs)):
            edges = frozenset(e for bit, e in enumerate(pairs) if mask >> bit & 1)
            graph = SigmaGraph("hawkes", "digraph", ATOMIC, vertices, edges)
            assert has_circuit(graph) == brute_has_circuit(vertices, edges)
            count += 1
    assert count == 531


def test_has_circuit_leaves_no_cyclic_garbage():
    """Peeling holds no reference cycle, so a call leaves nothing for the
    cycle collector, on graphs with and without a circuit."""
    graphs = [build(build_by_tag(tag), sigma) for tag in ("S3", "S4", "wreath_c2_s3")
              for sigma in standard_partitions() for build in (build_hawkes, build_hall)]
    a, b, c = build_hawkes(build_by_tag("C30"), ATOMIC).sorted_vertices()
    graphs.append(SigmaGraph("hawkes", "C30", ATOMIC, frozenset({a, b, c}),
                             frozenset({(a, b), (b, c), (c, a)})))
    assert any(not has_loop(g) and not has_circuit(g) for g in graphs)
    assert any(not has_loop(g) and has_circuit(g) for g in graphs)
    gc.collect()
    gc.disable()
    try:
        for graph in graphs:
            has_circuit(graph)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weak_components():
    vm = build_vm(build_by_tag("C30"), ATOMIC)
    assert [len(c) for c in weak_components(vm)] == [1, 1, 1]
    vm6 = build_vm(build_by_tag("S6"), ATOMIC)
    assert [len(c) for c in weak_components(vm6)] == [3]


def test_vm_monotone_in_subgroups():
    """A subgroup's vm graph embeds in the group's."""
    for tag in ("S4", "A5", "sl23"):
        g = build_by_tag(tag)
        whole = build_vm(g, ATOMIC)
        for m in maximal_subgroups(g):
            if m.order == 1:
                continue
            assert is_subgraph(build_vm(m.group, ATOMIC), whole), tag


@pytest.mark.parametrize("tag", ("S4", "A5", "sl23", "dic3", "s3xc5", "f20"))
def test_vm_candidate_pools_agree(tag):
    """Full lattice and two-generated search give the same vm graph."""
    g = build_by_tag(tag)
    for sigma in standard_partitions():
        full = vm_edges_from_candidates(g, sigma, all_subgroups(g))
        two_gen = vm_edges_from_candidates(g, sigma, two_generated_subgroups(g))
        assert full == two_gen
        assert frozenset(full) == build_vm(g, sigma).edges


def test_union_and_subgraph_algebra():
    s4 = build_by_tag("S4")
    s3 = build_by_tag("S3")
    g1 = build_vm(s4, ATOMIC, group_tag="S4")
    g2 = build_vm(s3, ATOMIC, group_tag="S3")
    u = union(g1, g2)
    assert u.vertices == g1.vertices | g2.vertices
    assert u.edges == g1.edges | g2.edges
    assert is_subgraph(g1, u) and is_subgraph(g2, u)
    assert graphs_equal(union(g1, g2), union(g2, g1))
    assert graphs_equal(union(g1, g1), g1)
    assert is_subgraph(g2, g1)  # S3's vm edge lives inside S4's
    other = build_vm(s4, SigmaPartition(explicit_classes=(frozenset({2, 3}),)))
    with pytest.raises(DomainError):
        union(g1, other)
    with pytest.raises(DomainError):
        is_subgraph(g1, other)


def test_union_merges_kind_and_tag():
    s4 = build_by_tag("S4")
    vm = build_vm(s4, ATOMIC, group_tag="S4")
    hawkes = build_hawkes(s4, ATOMIC, group_tag="S4")
    assert union(vm, vm).kind == "vm"
    assert union(vm, hawkes).kind == "union"
    assert union(vm, hawkes).group_tag == "S4"


def test_graph_constructor_rejects_stray_edges():
    s4 = build_by_tag("S4")
    vm = build_vm(s4, ATOMIC)
    stray = ATOMIC.classify(7)
    with pytest.raises(DomainError):
        SigmaGraph("vm", "S4", ATOMIC, vm.vertices,
                   frozenset({(stray, stray)}))


def test_json_shape_and_determinism():
    first = to_json(build_hawkes(symmetric(4), ATOMIC, group_tag="S4"))
    second = to_json(build_hawkes(symmetric(4), ATOMIC, group_tag="S4"))
    assert first == second
    data = json.loads(first)
    assert data == {
        "kind": "hawkes", "group": "S4",
        "vertices": [{"tag": "atomic:2", "primes_in_G": [2]},
                     {"tag": "atomic:3", "primes_in_G": [3]}],
        "edges": [["atomic:2", "atomic:2"], ["atomic:2", "atomic:3"],
                  ["atomic:3", "atomic:2"]],
    }


def test_dot_output():
    dot = to_dot(build_hawkes(build_by_tag("S3"), ATOMIC, group_tag="S3"))
    assert dot == ('digraph "hawkes_S3" {\n'
                   '  "atomic:2";\n'
                   '  "atomic:3";\n'
                   '  "atomic:3" -> "atomic:2";\n'
                   '}\n')


def test_vm_falls_back_above_lattice_caps():
    """wreath_c2_s3 is beyond the lattice caps; vm needs only the Schmidt
    types, read off element pairs, and still matches the hand-checked
    edges."""
    w = build_by_tag("wreath_c2_s3")
    with pytest.raises(ResourceLimitError):
        all_subgroups(w)
    assert tags(build_vm(w, ATOMIC).edges) == [
        ("atomic:2", "atomic:3"), ("atomic:3", "atomic:2")]


def _vm_and_critical(tag):
    """vm edges and is_critical over the two-generated subgroups, per
    standard partition, on a fresh copy of the zoo group."""
    z = build_by_tag(tag)
    g = PermGroup(z.degree, z.generators)
    subs = two_generated_subgroups(g)
    out = []
    for sigma in standard_partitions():
        out.append(tags(build_vm(g, sigma).edges))
        out.append([is_critical(s.group, sigma) for s in subs])
    return out


@pytest.mark.parametrize("tag", ("S4", "A5", "sl23", "wreath_c2_s3"))
def test_vm_and_critical_never_enumerate_the_lattice(tag, monkeypatch):
    """Critical subgroups are two-generated, so neither build_vm nor
    is_critical needs the full subgroup lattice."""
    expected = _vm_and_critical(tag)

    def refuse(*args, **kwargs):
        raise AssertionError("the full subgroup lattice was enumerated")

    for name, module in list(sys.modules.items()):
        if name.startswith("sigmagraph") and hasattr(module, "all_subgroups"):
            monkeypatch.setattr(module, "all_subgroups", refuse)
    monkeypatch.setattr(sigmagraph.group, "_all_subgroup_sets", refuse)
    assert _vm_and_critical(tag) == expected


@pytest.mark.parametrize("make", (lambda: symmetric(4), lambda: alternating(5),
                                  lambda: regular_wreath(2, symmetric(3))),
                         ids=("S4", "A5", "wreath_c2_s3"))
def test_hawkes_derives_no_generators(make, monkeypatch):
    """F_i is a pullback over G's normal subgroups, which are held as
    element sets only, so a Hawkes graph on a fresh group derives no
    generators."""
    derive = sigmagraph.group._Universe.derive_gens
    calls = []

    def counting(self, idx_set):
        calls.append(len(idx_set))
        return derive(self, idx_set)

    monkeypatch.setattr(sigmagraph.group._Universe, "derive_gens", counting)
    g = make()
    for sigma in standard_partitions():
        build_hawkes(g, sigma)
    assert calls == []


def _vm_schmidt_critical(make):
    """vm edges and is_critical per standard partition, then is_schmidt, on a
    fresh group."""
    g = make()
    out = []
    for sigma in standard_partitions():
        out.append(tags(build_vm(g, sigma).edges))
        out.append(is_critical(g, sigma))
    out.append(is_schmidt(g))
    return out


@pytest.mark.parametrize("make", (lambda: symmetric(4), lambda: alternating(5), sl2_3,
                                  lambda: regular_wreath(2, symmetric(3)),
                                  lambda: symmetric(6)),
                         ids=("S4", "A5", "sl23", "wreath_c2_s3", "S6"))
def test_vm_and_schmidt_build_no_subgroup_pool(make, monkeypatch):
    """build_vm, is_schmidt and is_critical read element pairs: they never
    list the two-generated subgroups nor the subgroup lattice."""
    expected = _vm_schmidt_critical(make)

    def refuse(*args, **kwargs):
        raise AssertionError("a subgroup pool was enumerated")

    for name, module in list(sys.modules.items()):
        if name.startswith("sigmagraph") and hasattr(module, "two_generated_subgroups"):
            monkeypatch.setattr(module, "two_generated_subgroups", refuse)
    monkeypatch.setattr(sigmagraph.group, "_all_subgroup_sets", refuse)
    assert _vm_schmidt_critical(make) == expected


@pytest.mark.parametrize("make", (lambda: symmetric(4), lambda: alternating(5), sl2_3,
                                  lambda: regular_wreath(2, symmetric(3))),
                         ids=("S4", "A5", "sl23", "wreath_c2_s3"))
def test_graphs_and_schmidt_build_no_group_per_subgroup(make, monkeypatch):
    """vm, hawkes, criticality and the Schmidt test read subgroups as index
    sets in the group's own element table: past the group itself, no group
    is built."""
    g = make()
    built = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    for sigma in standard_partitions():
        build_vm(g, sigma)
        build_hawkes(g, sigma)
        is_critical(g, sigma)
    is_schmidt(g)
    assert built == []
