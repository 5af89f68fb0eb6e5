import gc
import json
import sys
from itertools import combinations

import pytest

from oracles import component_decomposition_holds
import sigmagraph.verify
from sigmagraph.bsgs import Bsgs
from sigmagraph.errors import ResourceLimitError
from sigmagraph.graphs import build_hall, build_hawkes, build_vm, to_json
from sigmagraph.group import (DEFAULT_LIMITS, EngineLimits, PermGroup, QuotientGroup,
                              Subgroup, all_subgroups)
from sigmagraph.perm import Permutation
from sigmagraph.predicates import _pi_closed_indices
from sigmagraph.sigma import ATOMIC, PiSet, SigmaPartition, sigma_of_group
from sigmagraph.verify import (ALL_STATEMENTS, CheckResult, _pairs_pi_closed, _pi_subsets,
                               factorization_fixtures, make_report,
                               run_corpus_sweep, verify_prop_1_2,
                               verify_prop_1_9, verify_prop_1_11,
                               verify_thm_1_4, verify_thm_1_7, verify_thm_1_12)
from sigmagraph.zoo import (build_by_tag, regular_wreath, sl2_3, standard_partitions,
                            symmetric)

TWO_THREE = SigmaPartition(explicit_classes=(frozenset({2, 3}),))


def yes(name):
    return CheckResult(name, True)


def no(name):
    return CheckResult(name, False, "w")


def gated(name):
    return CheckResult(name, True, "gated", evaluated=False)


def test_verdict_semantics():
    assert make_report("s", "g", ATOMIC, [yes("h")], [yes("c")]).verdict == "pass"
    assert make_report("s", "g", ATOMIC, [yes("h")], [no("c")]).verdict == "FAIL"
    assert make_report("s", "g", ATOMIC, [no("h")], [no("c")]).verdict == "vacuous"
    assert make_report("s", "g", ATOMIC, [], [yes("c")]).verdict == "pass"
    assert make_report("s", "g", ATOMIC, [yes("h")], [gated("c")]).verdict == "vacuous"
    assert make_report("s", "g", ATOMIC, [yes("h")],
                       [gated("c"), no("d")]).verdict == "FAIL"
    assert make_report("s", "g", ATOMIC, [], []).verdict == "vacuous"


def test_report_json_schema():
    rep = make_report("thm-x", "G1", TWO_THREE, [yes("h1")], [no("c1")])
    data = json.loads(rep.to_json())
    assert data["statement"] == "thm-x" and data["group"] == "G1"
    assert data["verdict"] == "FAIL"
    assert data["sigma"] == {"classes": [[2, 3]], "atomic": False}
    assert data["hypotheses"] == [
        {"name": "h1", "holds": True, "witness": "", "evaluated": True}]
    assert data["conclusions"] == [
        {"name": "c1", "holds": False, "witness": "w", "evaluated": True}]


@pytest.mark.parametrize("tag", ("S4", "sl23", "f20", "A5"))
def test_reports_and_graphs_are_written_with_sorted_keys(tag):
    """Reports and graphs are encoded without sort_keys, from payloads built
    in sorted key order; a field added out of order would change the bytes."""
    g = build_by_tag(tag)
    texts = [r.to_json() for r in run_corpus_sweep([(tag, g)], standard_partitions())]
    texts += [to_json(build(g, sigma, group_tag=tag)) for sigma in standard_partitions()
              for build in (build_hawkes, build_hall, build_vm)]
    for text in texts:
        assert text == json.dumps(json.loads(text), sort_keys=True)


def test_prop_1_2_passes_on_examples():
    for tag in ("S3", "S4", "A5", "S6", "wreath_c2_s3", "dic3"):
        g = build_by_tag(tag)
        for sigma in standard_partitions():
            rep = verify_prop_1_2(g, sigma, group_tag=tag)
            assert rep.verdict == "pass", rep.to_json()


def test_thm_1_4_examples():
    # positive and negative instances both come out as statement passes
    for tag, disp in (("S3", True), ("A4", True), ("S4", False), ("A5", False)):
        rep = verify_thm_1_4(build_by_tag(tag), ATOMIC, group_tag=tag)
        assert rep.verdict == "pass"
        assert f"dispersive={disp}" in rep.conclusions[0].witness


def test_thm_1_12_s4_all_statements_false():
    rep = verify_thm_1_12(build_by_tag("S4"), ATOMIC, group_tag="S4")
    assert rep.verdict == "pass"
    assert "nilpotent=False" in rep.conclusions[0].witness


def test_thm_1_7_fixtures():
    fixtures = factorization_fixtures()
    assert [f.tag for f in fixtures] == ["S4=S3.D4.A4", "S3xC5=S3.C15.C10",
                                         "S3=S3.S3.S3"]
    s4 = fixtures[0]
    rep = verify_thm_1_7(s4.group, s4.a, s4.b, s4.c, ATOMIC, group_tag=s4.tag)
    assert rep.verdict == "pass"
    assert all(h.holds for h in rep.hypotheses)
    by_name = {c.name: c for c in rep.conclusions}
    assert by_name["vm-union-equality"].evaluated
    assert not by_name["hawkes-union-equality"].evaluated  # indices share class 2

    mixed = fixtures[1]
    rep = verify_thm_1_7(mixed.group, mixed.a, mixed.b, mixed.c, ATOMIC,
                         group_tag=mixed.tag)
    assert rep.verdict == "pass"
    by_name = {c.name: c for c in rep.conclusions}
    assert by_name["vm-union-equality"].evaluated
    assert by_name["hawkes-union-equality"].evaluated
    assert "(atomic:3,atomic:2)" in by_name["vm-union-equality"].witness


def test_thm_1_7_detects_bad_factorization():
    import sigmagraph.group as gr
    from sigmagraph.perm import Permutation
    s4 = build_by_tag("S4")
    small = gr.subgroup(s4, [Permutation.from_cycles(4, [(0, 1)])])
    rep = verify_thm_1_7(s4, small, small, small, ATOMIC, group_tag="bogus")
    assert rep.verdict == "vacuous"
    assert not rep.hypotheses[0].holds


def test_thm_1_7_rejects_factors_of_another_group():
    import sigmagraph.group as gr
    from sigmagraph.errors import DomainError
    from sigmagraph.perm import Permutation
    from sigmagraph.zoo import symmetric
    s4, other = build_by_tag("S4"), symmetric(4)
    whole = gr.subgroup(s4, list(s4.generators))
    foreign = gr.subgroup(other, [Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(DomainError):
        verify_thm_1_7(s4, whole, whole, foreign, ATOMIC)


def test_prop_1_9_gating():
    s4 = build_by_tag("S4")
    verts = sigma_of_group(s4, ATOMIC)
    full = verify_prop_1_9(s4, ATOMIC, PiSet(frozenset(verts)), group_tag="S4")
    assert full.verdict == "pass"
    two = verify_prop_1_9(s4, ATOMIC, PiSet(frozenset({ATOMIC.classify(2)})),
                          group_tag="S4")
    assert two.verdict == "vacuous"  # the (3,2) edge gates both graphs out


def test_prop_1_11_sl23_non_vacuous():
    sl = build_by_tag("sl23")
    rep = verify_prop_1_11(ATOMIC, PiSet(frozenset({ATOMIC.classify(3)})), sl,
                           group_tag="sl23")
    assert rep.verdict == "pass"
    assert all(h.holds for h in rep.hypotheses if h.evaluated)
    assert rep.conclusions[0].evaluated and rep.conclusions[0].holds


def test_prop_1_11_gates():
    a4 = build_by_tag("A4")
    closed = verify_prop_1_11(ATOMIC, PiSet(frozenset({ATOMIC.classify(2)})), a4,
                              group_tag="A4")
    assert closed.verdict == "vacuous"  # A4 is already 2-closed
    a5 = build_by_tag("A5")
    insoluble = verify_prop_1_11(ATOMIC, PiSet(frozenset({ATOMIC.classify(2)})),
                                 a5, group_tag="A5")
    assert insoluble.verdict == "vacuous"
    assert not insoluble.hypotheses[0].holds


def test_prop_1_11_sweep_no_failures():
    for tag in ("S3", "S4", "A4", "sl23", "dic3", "wreath_c2_s3"):
        g = build_by_tag(tag)
        for sigma in standard_partitions():
            verts = sorted(sigma_of_group(g, sigma), key=lambda c: c.sort_key)
            for k in range(len(verts) + 1):
                for combo in combinations(verts, k):
                    rep = verify_prop_1_11(sigma, PiSet(frozenset(combo)), g,
                                           group_tag=tag)
                    assert rep.verdict in ("pass", "vacuous"), rep.to_json()


def test_pair_scan_agrees_with_the_lattice(corpus_groups, partitions):
    """On every (corpus group, standard partition, pi) triple whose lattice
    is within the caps, the pair scan finds a non-closed proper subgroup
    exactly when the lattice has one, and of the same least order."""
    triples = 0
    for tag, g in corpus_groups:
        try:
            proper = [s for s in all_subgroups(g) if s.order < g.order]
        except ResourceLimitError:
            continue
        for sigma in partitions:
            vertices = sigma_of_group(g, sigma)
            for pi in _pi_subsets(vertices):
                bad = [s.order for s in proper
                       if not _pi_closed_indices(g, s.indices, pi, DEFAULT_LIMITS)]
                want = ((False, f"subgroup of order {min(bad)} is not pi-closed") if bad
                        else (True, ""))
                assert _pairs_pi_closed(g, pi, DEFAULT_LIMITS) == want, (tag, sigma, pi)
                triples += 1
    assert triples == 1444


def test_pair_scan_counts_every_pair_toward_the_join_work_cap():
    """S4 has 4 non-identity classes and 16 cyclic subgroups other than the
    trivial one, all 2- or 3-elements under pi = {2, 3}: 64 pairs."""
    s4 = build_by_tag("S4")
    pi = PiSet(sigma_of_group(s4, ATOMIC))
    assert _pairs_pi_closed(s4, pi, EngineLimits(max_join_work=64)) == (True, "")
    with pytest.raises(ResourceLimitError, match="max_join_work=63"):
        _pairs_pi_closed(s4, pi, EngineLimits(max_join_work=63))


def test_component_decomposition():
    for tag in ("C30", "S4", "A5", "s3xc5", "Q8", "dic3"):
        assert component_decomposition_holds(build_by_tag(tag)), tag


def test_sweep_is_deterministic_and_ordered():
    groups = [("S3", build_by_tag("S3")), ("A4", build_by_tag("A4"))]
    parts = standard_partitions()
    first = [r.to_json() for r in run_corpus_sweep(groups, parts, ALL_STATEMENTS)]
    second = [r.to_json() for r in run_corpus_sweep(groups, parts, ALL_STATEMENTS)]
    assert first == second
    assert len(first) > 0
    # statement filter trims the stream
    only_14 = [r for r in run_corpus_sweep(groups, parts, ("1.4",))]
    assert len(only_14) == len(groups) * len(parts)
    assert all(r.statement_id == "thm-1.4" for r in only_14)
    # fixtures run once per partition, independent of the group list
    only_17 = [r for r in run_corpus_sweep(groups, parts, ("1.7",))]
    assert len(only_17) == 3 * len(parts)


@pytest.mark.parametrize("make", (lambda: symmetric(4), sl2_3,
                                  lambda: regular_wreath(2, symmetric(3))),
                         ids=("S4", "sl23", "wreath_c2_s3"))
def test_swept_group_is_freed_without_the_cycle_collector(make):
    """No value a sweep caches on a group (element table, normal lattice,
    chief series, Hall and Sylow subgroups, the lattice, predicate and
    graph values) refers back to the group, and its strong generating set
    holds no cycle either, so a group dropped after its sweep is freed at
    once with all its caches, instead of waiting for a full collection.  QuotientGroup is still counted: no sweep route
    builds one, and none may leave one behind."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        g = make()
        for _ in run_corpus_sweep([("G", g)], standard_partitions(), ALL_STATEMENTS):
            pass
        del g
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage
                if isinstance(o, (PermGroup, Subgroup, QuotientGroup, Bsgs, Permutation))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


@pytest.mark.parametrize("make", (lambda: symmetric(4), sl2_3,
                                  lambda: regular_wreath(2, symmetric(3))),
                         ids=("S4", "sl23", "wreath_c2_s3"))
def test_sweep_never_builds_a_quotient_group(make, monkeypatch):
    """Dispersion and the class length walk up G's own normal lattice, so
    the full sweep gives the same reports with quotient groups refused."""
    def sweep():
        return [r.to_json() for r in run_corpus_sweep([("G", make())], standard_partitions(),
                                                      ALL_STATEMENTS)]

    expected = sweep()

    def refuse(*args, **kwargs):
        raise AssertionError("a quotient group was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("sigmagraph") and hasattr(module, "quotient"):
            monkeypatch.setattr(module, "quotient", refuse)
    assert sweep() == expected


def test_prop_1_2_visits_classes_in_sort_order(monkeypatch):
    """The class-length check stops early, so it must walk the classes in
    sort_key order: the iteration order of a set of classes follows hash
    values, which vary from run to run."""
    seen = []
    real = sigmagraph.verify.sigma_length

    def spy(G, cls, limits):
        seen.append(cls)
        return real(G, cls, limits)

    monkeypatch.setattr(sigmagraph.verify, "sigma_length", spy)
    verify_prop_1_2(build_by_tag("C30"), ATOMIC)
    assert [c.tag for c in seen] == ["atomic:2", "atomic:3", "atomic:5"]
