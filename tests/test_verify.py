import gc
import json
import random
import sys
import time
from itertools import combinations

import pytest

from oracles import component_decomposition_holds, pairs_pi_closed_every_pair, rebuilt
import sigmagraph.verify
from sigmagraph.bsgs import Bsgs
from sigmagraph.errors import DomainError, ResourceLimitError
from sigmagraph.graphs import build_hall, build_hawkes, build_vm, to_json
from sigmagraph.group import (DEFAULT_LIMITS, EngineLimits, PermGroup, QuotientGroup, Subgroup,
                              _Universe, all_subgroups, core_series_subgroup)
from sigmagraph.perm import Permutation
from sigmagraph.predicates import _pi_closed_indices
from sigmagraph.sigma import ATOMIC, PiSet, SigmaPartition, pi_part, primes_of, sigma_of_group
from sigmagraph.verify import (_PER_GROUP, _PER_PI, ALL_STATEMENTS, CheckResult,
                               _pairs_pi_closed, _pi_subsets,
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
    # built from the zoo's generators, in the zoo's order
    zoo_groups = (symmetric(4), build_by_tag("s3xc5"), symmetric(3))
    assert [f.group.generators for f in fixtures] == [G.generators for G in zoo_groups]


def test_fixture_groups_are_the_zoo_groups_under_the_given_caps(cayley_walks):
    """factorization_fixtures reads S4, s3xc5 and S3 from build_by_tag: the
    same generator images, under the caps it is given, and exactly the
    walks build_by_tag makes for them."""
    for limits in (DEFAULT_LIMITS, EngineLimits(max_element_order=1000)):
        cayley_walks.clear()
        zoo_groups = [build_by_tag(tag, limits) for tag in ("S4", "s3xc5", "S3")]
        built = list(cayley_walks)
        cayley_walks.clear()
        fixtures = factorization_fixtures(limits)
        assert cayley_walks == built
        for fx, G in zip(fixtures, zoo_groups, strict=True):
            assert fx.group.limits == limits
            assert ([g.images for g in fx.group.generators]
                    == [g.images for g in G.generators])


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
    rep = verify_prop_1_11(sl, ATOMIC, PiSet(frozenset({ATOMIC.classify(3)})),
                           group_tag="sl23")
    assert rep.verdict == "pass"
    assert all(h.holds for h in rep.hypotheses if h.evaluated)
    assert rep.conclusions[0].evaluated and rep.conclusions[0].holds


def test_prop_1_11_gates():
    a4 = build_by_tag("A4")
    closed = verify_prop_1_11(a4, ATOMIC, PiSet(frozenset({ATOMIC.classify(2)})),
                              group_tag="A4")
    assert closed.verdict == "vacuous"  # A4 is already 2-closed
    a5 = build_by_tag("A5")
    insoluble = verify_prop_1_11(a5, ATOMIC, PiSet(frozenset({ATOMIC.classify(2)})),
                                 group_tag="A5")
    assert insoluble.verdict == "vacuous"
    assert not insoluble.hypotheses[0].holds


@pytest.mark.parametrize("verify", (verify_prop_1_9, verify_prop_1_11), ids=("1.9", "1.11"))
def test_pi_from_another_partition_is_refused(verify):
    """A pi whose classes belong to another partition than sigma would meet
    no vertex and read as the empty class set (prop 1.9 passed with
    pi1={}); it is refused, whichever partition it comes from, while an
    equal partition built anew is accepted."""
    s4 = build_by_tag("S4")
    for other in (TWO_THREE, SigmaPartition(explicit_classes=(frozenset({3}),))):
        with pytest.raises(DomainError, match="another partition"):
            verify(s4, ATOMIC, PiSet(frozenset({other.classify(2)})))
    with pytest.raises(DomainError, match="another partition"):
        verify(s4, TWO_THREE, PiSet(frozenset({ATOMIC.classify(2)})))
    same = PiSet(frozenset({SigmaPartition(atomic=True).classify(3)}))
    assert (verify(s4, ATOMIC, same).to_json()
            == verify(s4, ATOMIC, PiSet(frozenset({ATOMIC.classify(3)}))).to_json())


def test_prop_1_11_sweep_no_failures():
    for tag in ("S3", "S4", "A4", "sl23", "dic3", "wreath_c2_s3"):
        g = build_by_tag(tag)
        for sigma in standard_partitions():
            verts = sorted(sigma_of_group(g, sigma), key=lambda c: c.sort_key)
            for k in range(len(verts) + 1):
                for combo in combinations(verts, k):
                    rep = verify_prop_1_11(g, sigma, PiSet(frozenset(combo)),
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
                       if not _pi_closed_indices(g, s.indices, pi)]
                want = ((False, f"subgroup of order {min(bad)} is not pi-closed") if bad
                        else (True, ""))
                assert _pairs_pi_closed(g, pi) == want, (tag, sigma, pi)
                triples += 1
    assert triples == 1444


def test_pair_scan_counts_every_pair_toward_the_join_work_cap():
    """S4 has 4 non-identity classes and 16 cyclic subgroups other than the
    trivial one, all 2- or 3-elements under pi = {2, 3}: 64 pairs."""
    s4 = build_by_tag("S4")
    pi = PiSet(sigma_of_group(s4, ATOMIC))
    assert _pairs_pi_closed(rebuilt(s4, max_join_work=64), pi) == (True, "")
    with pytest.raises(ResourceLimitError, match="max_join_work=63"):
        _pairs_pi_closed(rebuilt(s4, max_join_work=63), pi)


PI_2, PI_3 = (PiSet(frozenset({ATOMIC.classify(p)})) for p in (2, 3))


def test_pair_scan_agrees_with_the_every_pair_scan(corpus_groups):
    """The scan's two prunings (pairs that meet O_pi(G), the stop at order 6)
    change neither verdict nor witness against the scan of every pair: on
    every corpus group for every non-empty proper set of its primes (196
    cases, wreath_c2_s3 among them), and on C3 wr S3 (order 4374, past the
    table limit) with pi = {2}."""
    cases = [(tag, g, PiSet(frozenset(map(ATOMIC.classify, combo))))
             for tag, g in corpus_groups
             for k in range(1, len(primes_of(g.order)))
             for combo in combinations(primes_of(g.order), k)]
    assert len(cases) == 196
    assert ("wreath_c2_s3", PI_2) in {(tag, pi) for tag, _, pi in cases}
    cases.append(("C3wrS3", regular_wreath(3, symmetric(3)), PI_2))
    for tag, g, pi in cases:
        want = pairs_pi_closed_every_pair(g, pi)
        assert _pairs_pi_closed(g, pi) == want, (tag, pi)


def count_closures(monkeypatch, budget: int) -> list[int]:
    """Count ``_Universe.closure`` calls in [0]; the call past budget fails."""
    calls = [0]
    closure = _Universe.closure

    def counted(self, *args, **kwargs):
        calls[0] += 1
        assert calls[0] <= budget, f"more than {budget} closures"
        return closure(self, *args, **kwargs)
    monkeypatch.setattr(_Universe, "closure", counted)
    return calls


def test_pair_scan_skips_the_pi_core_and_stops_at_order_6(monkeypatch):
    """wreath_c2_s3 under pi = {2}: with O_2(G) known, the scan closes at
    most 64 pairs before its order-6 witness (the scan of every pair closes
    2572)."""
    g = build_by_tag("wreath_c2_s3")
    core_series_subgroup(g, [2])
    count_closures(monkeypatch, 64)
    assert _pairs_pi_closed(g, PI_2) == (
        False, "subgroup of order 6 is not pi-closed")


def test_pair_scan_of_a_pi_closed_group_closes_nothing(monkeypatch):
    """C3 wr S3 is 3-closed, O_3(G) holds every 3-element, so with O_3(G)
    known the pair loop closes nothing (the scan of every pair closes
    45,084 pairs, 3-groups of up to 2187 elements)."""
    g = regular_wreath(3, symmetric(3))
    core_series_subgroup(g, [3])
    calls = count_closures(monkeypatch, 0)
    start = time.perf_counter()
    assert _pairs_pi_closed(g, PI_3) == (True, "")
    assert time.perf_counter() - start < 5
    assert calls == [0]


def test_pair_scan_counts_skipped_pairs_toward_the_join_work_cap():
    """wreath_c2_s3 under pi = {2} has 23 classes of 2-elements and 171
    cyclic 2-subgroups: 3933 pairs, counted before any is skipped."""
    g = build_by_tag("wreath_c2_s3")
    want = (False, "subgroup of order 6 is not pi-closed")
    assert _pairs_pi_closed(rebuilt(g, max_join_work=3933), PI_2) == want
    with pytest.raises(ResourceLimitError, match="max_join_work=3932"):
        _pairs_pi_closed(rebuilt(g, max_join_work=3932), PI_2)


def test_sweep_scans_pairs_once_per_pi_part(monkeypatch):
    """A wreath_c2_s3 sweep under the standard partitions asks prop 1.11's
    maximals question four times, but for two pi-parts of |G| only: the
    answer is kept per pi-part, so the pair scan runs twice, once each."""
    scanned = []
    scan = sigmagraph.verify._pairs_pi_closed

    def counted(G, pi):
        scanned.append(pi_part(G.order, pi.classes))
        return scan(G, pi)
    monkeypatch.setattr(sigmagraph.verify, "_pairs_pi_closed", counted)
    g = build_by_tag("wreath_c2_s3")
    asked = []
    ask = sigmagraph.verify._maximals_pi_closed
    monkeypatch.setattr(sigmagraph.verify, "_maximals_pi_closed",
                        lambda G, pi: asked.append(1) or ask(G, pi))
    reports = list(run_corpus_sweep([("wreath_c2_s3", g)], standard_partitions(), ("1.11",)))
    assert len(asked) == 4
    assert len(scanned) == len(set(scanned)) == 2
    assert not any(r.verdict == "FAIL" for r in reports)


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
    # fixture reports come once per partition, independent of the group list
    only_17 = [r for r in run_corpus_sweep(groups, parts, ("1.7",))]
    assert len(only_17) == 3 * len(parts)
    # each id alone gives exactly its part of the full stream, in order
    for sid in ALL_STATEMENTS:
        alone = [r.to_json() for r in run_corpus_sweep(groups, parts, (sid,))]
        assert alone == [text for text in first
                         if json.loads(text)["statement"].partition("-")[2] == sid], sid
        assert alone, sid
    assert {*_PER_GROUP, *_PER_PI, "1.7"} == set(ALL_STATEMENTS)


def test_sweep_builds_each_fixture_group_once(monkeypatch):
    """One sweep call builds the 1.7 fixtures once, and every partition
    reads the same fixture groups; the next call builds them afresh.  With
    no partition the fixtures are not built at all, so even caps they
    exceed give an empty stream."""
    seen = []
    real = sigmagraph.verify.verify_thm_1_7

    def spy(G, A, B, C, sigma, group_tag):
        seen.append((group_tag, G))
        return real(G, A, B, C, sigma, group_tag)

    monkeypatch.setattr(sigmagraph.verify, "verify_thm_1_7", spy)
    calls = [list(run_corpus_sweep([], standard_partitions(), ("1.7",))) for _ in range(2)]
    assert [len(reports) for reports in calls] == [9, 9]
    first, second = seen[:9], seen[9:]
    for tag in ("S4=S3.D4.A4", "S3xC5=S3.C15.C10", "S3=S3.S3.S3"):
        built = [G for t, G in first if t == tag]
        assert len(built) == 3 and all(G is built[0] for G in built), tag
        assert all(G is not built[0] for t, G in second if t == tag), tag
    tight = EngineLimits(max_element_order=20)
    assert list(run_corpus_sweep([], (), ("1.7",), tight)) == []
    with pytest.raises(ResourceLimitError, match="max_element_order=20"):
        list(run_corpus_sweep([], standard_partitions(), ("1.7",), tight))


def _relabelled(G: PermGroup) -> list[Permutation]:
    """G's generators conjugated by one seeded permutation s of its points:
    each g becomes s^-1 g s."""
    points = list(range(G.degree))
    random.Random(G.degree).shuffle(points)
    s = Permutation(tuple(points))
    return [s.inverse() * g * s for g in G.generators]


REGENERATIONS = {"reversed": lambda G: G.generators[::-1],
                 "first-times-last": lambda G: (*G.generators,
                                                G.generators[0] * G.generators[-1]),
                 "relabelled": _relabelled}


@pytest.mark.parametrize("how", REGENERATIONS)
@pytest.mark.parametrize("tag", ("S4", "A4", "A5", "D6", "C30", "dic3", "sl23", "f20",
                                 "s3xc5", "wreath_c2_s3"))
def test_report_stream_does_not_depend_on_the_generating_set(tag, how):
    """The per-group statements are decided on the group, not on the
    generators it was given: rebuilt on another generating set, or with its
    points relabelled, it gives the same report bytes."""
    def stream(G):
        return [r.to_json() for r in run_corpus_sweep(
            [(tag, G)], standard_partitions(), ("1.2", "1.4", "1.9", "1.11", "1.12"))]

    G = build_by_tag(tag)
    again = PermGroup(G.degree, REGENERATIONS[how](G))
    assert again.order == G.order
    assert stream(again) == stream(G)


@pytest.mark.parametrize("statements", [("1.3",), ("1.2", "1.13"), "1.2"])
def test_sweep_refuses_unknown_statement_ids(statements):
    """An unknown id is an error, not an empty or shortened stream (a bare
    string is read as its characters)."""
    with pytest.raises(DomainError, match="unknown statement ids"):
        list(run_corpus_sweep([("S3", build_by_tag("S3"))], standard_partitions(),
                              statements))


@pytest.mark.parametrize("make", (lambda: symmetric(4), sl2_3,
                                  lambda: regular_wreath(2, symmetric(3))),
                         ids=("S4", "sl23", "wreath_c2_s3"))
def test_swept_group_is_freed_without_the_cycle_collector(make):
    """No value a sweep caches on a group (element table, normal lattice,
    chief series, Hall and Sylow subgroups, the lattice, predicate and
    graph values) refers back to the group, so a group dropped after its
    sweep is freed at once with all its caches, instead of waiting for a
    full collection.  QuotientGroup and Bsgs are still counted: no sweep
    route builds either, and none may leave one behind."""
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

    def spy(G, cls):
        seen.append(cls)
        return real(G, cls)

    monkeypatch.setattr(sigmagraph.verify, "sigma_length", spy)
    verify_prop_1_2(build_by_tag("C30"), ATOMIC)
    assert [c.tag for c in seen] == ["atomic:2", "atomic:3", "atomic:5"]
