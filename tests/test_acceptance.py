"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Every test prints `ACCEPTANCE n: PASS/FAIL - summary` before asserting, so the
scoreboard survives in the -rA report whichever way the run ends.  The corpus
is the full zoo plus every nontrivial subgroup of S5; the sweep stream is
computed once and shared by the statement-level criteria.
"""

import itertools

import pytest

from oracles import (component_decomposition_holds, f_class_subgroup_by_normal_complement,
                     f_class_subgroup_by_pullback, frattini, has_sylow_tower,
                     vm_edges_from_candidates)
from sigmagraph.errors import ResourceLimitError
from sigmagraph.graphs import (build_hall, build_hawkes, build_vm, has_circuit,
                               has_loop, is_subgraph)
from sigmagraph.group import (PermGroup, all_subgroups, normal_subgroups,
                              quotient, two_generated_subgroups)
from sigmagraph.predicates import (f_class_subgroup, is_class_nilpotent,
                                   is_sigma_dispersive, is_sigma_nilpotent)
from sigmagraph.sigma import ATOMIC, PiSet, SigmaPartition, sigma_of_group
from sigmagraph.verify import run_corpus_sweep, verify_prop_1_11
from sigmagraph.zoo import build_by_tag


def record(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {n}: {text}"


@pytest.fixture(scope="session")
def sweep_stream(corpus_groups, partitions):
    """One full deterministic sweep, serialized; reused by criteria 3/4/8/10."""
    return [r.to_json() for r in run_corpus_sweep(corpus_groups, partitions)]


def fails_in(stream, statement):
    picked = [line for line in stream if f'"statement": "{statement}"' in line]
    bad = [line for line in picked if '"verdict": "FAIL"' in line]
    return picked, bad


def test_acceptance_01_graph_chain(corpus_groups, partitions):
    bad = []
    for tag, g in corpus_groups:
        for sigma in partitions:
            hall, vm = build_hall(g, sigma), build_vm(g, sigma)
            hawkes = build_hawkes(g, sigma)
            if not (is_subgraph(hall, vm) and is_subgraph(vm, hawkes)):
                bad.append(tag)
    n = len(corpus_groups) * len(partitions)
    record(1, not bad,
           f"hall <= vm <= hawkes on all {n} (group, partition) pairs"
           + (f"; violated by {bad[:3]}" if bad else ""))


def test_acceptance_02_strictness_witness():
    g = build_by_tag("wreath_c2_s3")
    sigma = SigmaPartition(explicit_classes=(frozenset({2}),))
    s1, s2 = sigma.classify(2), sigma.classify(3)
    hall, vm = build_hall(g, sigma), build_vm(g, sigma)
    hawkes = build_hawkes(g, sigma)
    ok = (hall.edges < vm.edges < hawkes.edges
          and (s1, s1) in hawkes.edges and has_loop(hawkes)
          and (s1, s2) not in hall.edges)
    record(2, ok,
           "order-384 wreath group, classes {{2}, rest}: strict hall < vm < "
           "hawkes, hawkes loop at the 2-class, no hall edge 2-class -> rest")


def test_acceptance_03_dispersive_equivalence(sweep_stream, corpus_groups):
    picked, bad = fails_in(sweep_stream, "thm-1.4")
    groups = dict(corpus_groups)
    signs = {"S3": True, "A4": True, "S4": False, "A5": False}
    pins = all(is_sigma_dispersive(groups[t], ATOMIC) is v
               and has_circuit(build_hawkes(groups[t], ATOMIC)) is not v
               for t, v in signs.items())
    record(3, not bad and pins,
           f"dispersive/hawkes-acyclic/soluble+vm-acyclic agree on all "
           f"{len(picked)} reports; S3, A4 positive and S4, A5 negative "
           f"under the finest partition")


def test_acceptance_04_isolation_and_decomposition(sweep_stream, corpus_groups):
    picked, bad = fails_in(sweep_stream, "thm-1.12")
    undec = [tag for tag, g in corpus_groups
             if not component_decomposition_holds(g)]
    record(4, not bad and not undec,
           f"nilpotency/isolated-vertex equivalences hold on all {len(picked)} "
           f"reports; vm-component product decomposition holds for all "
           f"{len(corpus_groups)} groups"
           + (f"; broken for {undec[:3]}" if undec else ""))


def test_acceptance_05_classical_hawkes(corpus_groups):
    bad = [tag for tag, g in corpus_groups
           if has_sylow_tower(g) is has_circuit(build_hawkes(g, ATOMIC))]
    record(5, not bad,
           f"Sylow-tower oracle == acyclic hawkes graph (finest partition) on "
           f"all {len(corpus_groups)} groups"
           + (f"; disagreed on {bad[:3]}" if bad else ""))


def test_acceptance_06_oracle_equivalences(corpus_groups, partitions):
    f_bad, f_pairs = [], 0
    for tag, g in corpus_groups:
        for sigma in partitions:
            for cls in sorted(sigma_of_group(g, sigma), key=lambda c: c.sort_key):
                f_pairs += 1
                walk = f_class_subgroup(g, cls)
                pull = f_class_subgroup_by_pullback(g, cls)
                scan = f_class_subgroup_by_normal_complement(g, cls)
                if not walk.indices == pull.indices == scan.indices:
                    f_bad.append((tag, cls.tag))
    vm_bad, vm_groups = [], 0
    for tag, g in corpus_groups:
        try:
            full = all_subgroups(g)
        except ResourceLimitError:
            continue
        vm_groups += 1
        two_gen = two_generated_subgroups(g)
        for sigma in partitions:
            a = frozenset(vm_edges_from_candidates(g, sigma, full))
            b = frozenset(vm_edges_from_candidates(g, sigma, two_gen))
            if not (a == b == build_vm(g, sigma).edges):
                vm_bad.append(tag)
    record(6, not f_bad and not vm_bad,
           f"class-walk F == quotient pullback == normal-complement scan "
           f"on all {f_pairs} (group, class) pairs; full-lattice vm == "
           f"two-generated vm (criticality "
           f"from each candidate's lattice) == build_vm on all {vm_groups} "
           f"groups within lattice caps")


def test_acceptance_07_factorization_fixtures(partitions):
    stream = list(run_corpus_sweep((), partitions, statements=("1.7",)))
    by_key = {(r.group_tag, r.sigma.to_json()["atomic"],
               tuple(map(tuple, r.sigma.to_json()["classes"]))): r
              for r in stream}
    results = {}
    for r in stream:
        for c in r.conclusions:
            if c.evaluated:
                results.setdefault(r.group_tag, []).append((c.name, c.holds))
    s4 = results.get("S4=S3.D4.A4", [])
    s3c5_atomic = next(r for r in stream
                       if r.group_tag == "S3xC5=S3.C15.C10"
                       and r.sigma.to_json()["atomic"])
    part1_s4 = [h for n, h in s4 if n == "vm-union-equality"]
    both = {c.name: (c.evaluated, c.holds) for c in s3c5_atomic.conclusions}
    ok = (len(by_key) == len(stream)
          and part1_s4 and all(part1_s4)
          and all(not r.hypotheses or all(h.holds for h in r.hypotheses)
                  for r in stream)
          and both["vm-union-equality"] == (True, True)
          and both["hawkes-union-equality"] == (True, True)
          and all(r.verdict != "FAIL" for r in stream))
    record(7, ok,
           "S4 = S3.D4 = D4.A4 = S3.A4 passes the vm union equality; "
           "S3xC5 = S3.C15 = C15.C10 = S3.C10 passes both union equalities "
           "under the finest partition; all equalities exact")


def test_acceptance_08_pi_sweeps(sweep_stream, corpus_groups, partitions):
    picked9, bad9 = fails_in(sweep_stream, "prop-1.9")
    picked11, bad11 = fails_in(sweep_stream, "prop-1.11")
    widths = {len(sigma_of_group(g, sigma))
              for _, g in corpus_groups for sigma in partitions}
    sl23 = build_by_tag("sl23")
    r = verify_prop_1_11(sl23, ATOMIC, PiSet(frozenset({ATOMIC.classify(3)})))
    non_vacuous = (r.verdict == "pass"
                   and all(c.evaluated for c in r.conclusions))
    record(8, not bad9 and not bad11 and max(widths) <= 3 and non_vacuous,
           f"zero FAILs over all class subsets: {len(picked9)} direction "
           f"reports and {len(picked11)} criticality reports (vertex sets of "
           f"size <= {max(widths)}); SL(2,3) with pi = {{3}} hits the "
           f"non-vacuous branch")


def test_acceptance_09_closure_suite(corpus_groups, partitions):
    applied, bad = 0, []
    small = [(tag, g) for tag, g in corpus_groups if g.order <= 200]
    for tag, g in small:
        subs = all_subgroups(g)
        normals = normal_subgroups(g)
        phi_image = quotient(g, frattini(g)).image
        for sigma in partitions:
            classes = sorted(sigma_of_group(g, sigma), key=lambda c: c.sort_key)
            traits = [(lambda h, c=cls: is_class_nilpotent(h, c))
                      for cls in classes]
            traits.append(lambda h, s=sigma: is_sigma_nilpotent(h, s))
            for trait in traits:
                if trait(g):
                    applied += 1
                    if not all(trait(s.group) for s in subs):
                        bad.append((tag, "subgroup"))
                    if not all(trait(quotient(g, n).image) for n in normals):
                        bad.append((tag, "quotient"))
                for n1, n2 in itertools.combinations(normals, 2):
                    if trait(n1.group) and trait(n2.group):
                        applied += 1
                        prod = PermGroup(g.degree, n1.group.generators
                                         + n2.group.generators)
                        if not trait(prod):
                            bad.append((tag, "normal-product"))
                if trait(phi_image):
                    applied += 1
                    if not trait(g):
                        bad.append((tag, "frattini"))
    record(9, not bad and applied >= 200,
           f"class- and partition-nilpotency closed under subgroups, "
           f"quotients, normal products, frattini lift on all {len(small)} "
           f"groups of order <= 200 ({applied} non-vacuous checks)"
           + (f"; broken: {sorted(set(bad))[:4]}" if bad else ""))


def test_acceptance_10_determinism(sweep_stream, corpus_groups, partitions):
    again = [r.to_json() for r in run_corpus_sweep(corpus_groups, partitions)]
    first = "\n".join(sweep_stream).encode()
    second = "\n".join(again).encode()
    record(10, first == second,
           f"two full corpus sweeps emit byte-identical streams "
           f"({len(sweep_stream)} reports, {len(first)} bytes)")
