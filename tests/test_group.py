from itertools import combinations
from math import prod

import pytest
import sigmagraph.group
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ORACLE_TAGS, brute_subgroup_sets, chief_series_terms,
                     closure, frattini, hall_classes_every_pi_element,
                     largest_normal_over_by_lattice, naive_centralizer, naive_normalizer)
from sigmagraph.errors import (CrossCheckError, DomainError, GroupInputError,
                               ResourceLimitError)
from sigmagraph.group import (DEFAULT_LIMITS, EngineLimits, PermGroup,
                              Subgroup, _hall_classes, _largest_normal_over, _sylow_set,
                              all_subgroups, centralizer, centralizer_of_factor,
                              chief_series, core_series_subgroup,
                              hall_subgroups, is_normal,
                              maximal_subgroups, normal_subgroups, normalizer,
                              quotient, subgroup, sylow, two_generated_subgroups)
from sigmagraph.perm import Permutation
from sigmagraph.predicates import f_class_subgroup, is_sigma_soluble
from sigmagraph.sigma import ATOMIC, prime_factors, primes_of, sigma_of_group
from sigmagraph.zoo import (alternating, build_by_tag, direct_product, regular_wreath,
                            standard_partitions, symmetric)


def sets_of(subs, limits=DEFAULT_LIMITS):
    return {frozenset(s.elements(limits)) for s in subs}


def test_basic_group_facts():
    s4 = symmetric(4)
    assert s4.order == 24 and s4.degree == 4
    assert len(s4.elements()) == 24
    assert PermGroup(3, []).is_trivial


def test_constructor_validation():
    with pytest.raises(GroupInputError):
        PermGroup(0, [])
    with pytest.raises(GroupInputError):
        PermGroup(3, [Permutation((1, 0))])
    with pytest.raises(GroupInputError):
        PermGroup(3, ["(0 1)"])


@pytest.mark.parametrize("degree", (True, 2.0, "3", None), ids=("bool", "float", "str", "None"))
def test_constructor_refuses_a_degree_that_is_not_an_int(degree):
    """A bool is not read as 1, and a float, a string or None is refused
    with the input error, not a bare TypeError from the comparison."""
    with pytest.raises(GroupInputError, match="degree must be an int"):
        PermGroup(degree, [])


@pytest.mark.parametrize("tag", ORACLE_TAGS)
def test_all_subgroups_match_bruteforce(tag):
    g = build_by_tag(tag)
    assert sets_of(all_subgroups(g)) == brute_subgroup_sets(g)


def test_known_subgroup_counts():
    assert len(all_subgroups(build_by_tag("S4"))) == 30
    assert len(all_subgroups(build_by_tag("A5"))) == 59
    assert len(all_subgroups(build_by_tag("S5"))) == 156
    assert len(all_subgroups(build_by_tag("Q8"))) == 6
    assert len(all_subgroups(build_by_tag("dic3"))) == 8
    assert len(all_subgroups(alternating(6))) == 501
    assert len(all_subgroups(symmetric(6), EngineLimits(max_subgroup_order=720))) == 1455
    wreath = regular_wreath(2, symmetric(3))
    assert len(all_subgroups(wreath, EngineLimits(max_subgroup_count=5000))) == 4676


def test_two_generated_subgroups():
    s4 = build_by_tag("S4")
    # every subgroup of S4 needs at most two generators
    assert sets_of(two_generated_subgroups(s4)) == sets_of(all_subgroups(s4))
    orders = [s.order for s in two_generated_subgroups(s4)]
    assert orders == sorted(orders)


@pytest.mark.parametrize("tag", ("S4", "A4", "dic3", "Q8"))
def test_normal_subgroups_match_bruteforce(tag):
    g = build_by_tag(tag)
    u_sets = sets_of(normal_subgroups(g))
    expected = set()
    for s in brute_subgroup_sets(g):
        if all(x.inverse() * s_el * x in s for s_el in s for x in g.generators):
            expected.add(s)
    assert u_sets == expected


def test_normal_subgroup_orders():
    assert [n.order for n in normal_subgroups(build_by_tag("S4"))] == [1, 4, 12, 24]
    assert [n.order for n in normal_subgroups(build_by_tag("A5"))] == [1, 60]
    assert [n.order for n in normal_subgroups(build_by_tag("Q8"))] == [1, 2, 4, 4, 4, 8]


def test_subgroup_accessors():
    s4 = build_by_tag("S4")
    v4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    assert v4.order == 4
    assert is_normal(s4, v4)
    a4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                       Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    assert v4.indices < a4.indices


def test_centralizer_normalizer_match_naive():
    s4 = build_by_tag("S4")
    picks = [subgroup(s4, [Permutation.from_cycles(4, [(0, 1)])]),
             subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2, 3)])]),
             subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2)])]),
             subgroup(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                           Permutation.from_cycles(4, [(0, 2), (1, 3)])])]
    for s in picks:
        sub_elems = list(s.elements())
        assert frozenset(centralizer(s4, s).elements()) == naive_centralizer(s4, sub_elems)
        assert frozenset(normalizer(s4, s).elements()) == naive_normalizer(s4, sub_elems)


def test_subgroup_membership_validated():
    s4 = build_by_tag("S4")
    s5 = symmetric(5)
    rogue = subgroup(s5, [Permutation.from_cycles(5, [(0, 4)])])
    with pytest.raises(DomainError):
        centralizer(s4, rogue)


def test_subgroup_generator_outside_parent():
    a4 = build_by_tag("A4")
    with pytest.raises(DomainError):
        subgroup(a4, [Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(DomainError):
        subgroup(a4, [Permutation.from_cycles(5, [(0, 4)])])


@pytest.mark.parametrize("make", (lambda: symmetric(4), lambda: alternating(5)),
                         ids=("S4", "A5"))
def test_subgroups_build_their_group_only_when_used(make, monkeypatch):
    """Subgroups are index sets in the parent's element table: computing
    them and reading their order, indices or elements builds no group; the
    first .group read builds one, later reads reuse it.  The group is built
    fresh, so no subgroup comes from an earlier test."""
    g = make()
    built = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    subs = two_generated_subgroups(g) + normal_subgroups(g)
    for p, _ in prime_factors(g.order):
        subs += hall_subgroups(g, (p,))
    subs += [f(g, h) for h in hall_subgroups(g, (2,)) for f in (centralizer, normalizer)]
    for s in subs:
        assert s.order == len(s.indices) == len(s.elements())
    assert built == []
    s = subs[-1]
    first = s.group
    assert len(built) == 1 and first.order == s.order
    assert s.group is first and len(built) == 1


@pytest.mark.parametrize("tag", ORACLE_TAGS)
def test_lattice_subgroups_derive_their_generators_on_first_read(tag):
    """Subgroups read off the normal lattice, or found as a centraliser or
    normaliser, carry no generators of their own: .gens derives the canonical
    ones from the index set on first read and returns that tuple again."""
    g = build_by_tag(tag)
    u = g.universe()
    primes = [p for p, _ in prime_factors(g.order)]
    cs = chief_series(g)
    subs = normal_subgroups(g) + list(cs.terms)
    subs += [f_class_subgroup(g, cls) for sigma in standard_partitions()
             for cls in sigma_of_group(g, sigma)]
    subs += [core_series_subgroup(g, [p]) for p in primes]
    subs += [core_series_subgroup(g, [q for q in primes if q != p]) for p in primes]
    subs += [f(g, h) for h in all_subgroups(g) for f in (centralizer, normalizer)]
    subs += [centralizer_of_factor(g, h, k) for k, h in zip(cs.terms, cs.terms[1:])]
    for s in subs:
        first = s.gens
        assert first == u.derive_gens(s.indices)
        assert s.gens is first


def test_subgroup_group_must_match_indices():
    s4 = build_by_tag("S4")
    v4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    one_gen = (s4.universe().idx_of(Permutation.from_cycles(4, [(0, 1), (2, 3)])),)
    bad = Subgroup(s4, v4.indices, one_gen)
    assert bad.order == 4
    with pytest.raises(CrossCheckError):
        bad.group


def test_centralizer_of_factor():
    s4 = build_by_tag("S4")
    v4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    a4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                       Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    # [g, A4] <= V4 exactly on A4: the factor A4/V4 has automizer order 2
    c = centralizer_of_factor(s4, a4, v4)
    assert c.order == 12
    with pytest.raises(DomainError):
        centralizer_of_factor(s4, v4, a4)


def factor_orders(terms):
    return [above.order // below.order for below, above in zip(terms, terms[1:])]


def test_chief_series_s4():
    series = chief_series(build_by_tag("S4"))
    assert [t.order for t in series.terms] == [1, 4, 12, 24]
    assert factor_orders(series.terms) == [4, 3, 2]
    # each factor is a genuine quotient of consecutive terms
    for below, above in zip(series.terms, series.terms[1:]):
        kernel = subgroup(above.group, below.group.generators)
        assert quotient(above.group, kernel).order == above.order // below.order


def test_chief_series_both_preferences():
    """The library's series is the smallest-first one; the oracle builds the
    largest-first one, and both are chief series of C6."""
    c6 = build_by_tag("C6")
    small = list(chief_series(c6).terms)
    assert [t.indices for t in small] == [
        t.indices for t in chief_series_terms(c6, "smallest")]
    large = chief_series_terms(c6, "largest")
    for terms in (small, large):
        prod = 1
        for order in factor_orders(terms):
            assert len(prime_factors(order)) == 1
            prod *= order
        assert prod == 6
    assert {small[1].order, large[1].order} == {2, 3}


def test_chief_series_trivial_group():
    with pytest.raises(DomainError):
        chief_series(PermGroup(2, []))


def test_quotient_s4_by_v4():
    s4 = build_by_tag("S4")
    v4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    q = quotient(s4, v4)
    assert q.order == 6 and q.kernel.order == 4
    imgs = q.image.elements()
    assert any(a * b != b * a for a in imgs for b in imgs)
    # projection is a homomorphism on every element pair of a sample
    sample = s4.elements()[::5]
    for a in sample:
        for b in sample:
            assert q.project(a * b) == q.project(a) * q.project(b)


def test_quotient_special_cases():
    s4 = build_by_tag("S4")
    whole = subgroup(s4, list(s4.generators))
    assert quotient(s4, whole).image.is_trivial
    trivial = subgroup(s4, [])
    q = quotient(s4, trivial)
    assert q.image is s4
    with pytest.raises(DomainError):
        quotient(s4, subgroup(s4, [Permutation.from_cycles(4, [(0, 1)])]))


@pytest.mark.parametrize("tag", ["S4", "D6", "sl23"])
def test_quotient_numbers_cosets_by_least_element(tag):
    """Point c of the image is the c-th right coset N·r in the order of the
    least elements r, and x sends N·r to N·r·x; the whole group as N gives
    the trivial image of degree 1."""
    g = build_by_tag(tag)
    elems = g.elements()
    for n in normal_subgroups(g):
        if n.order == 1:
            continue
        coset_of, reps = {}, []
        for x in elems:  # ascending, so each coset is met first at its least element
            if x not in coset_of:
                coset_of.update((m * x, len(reps)) for m in n.elements())
                reps.append(x)
        q = quotient(g, n)
        assert q.image.degree == len(reps)
        for x in elems:
            assert q.project(x) == Permutation(tuple(coset_of[r * x] for r in reps))


def test_quotient_preimage_indices():
    s4 = build_by_tag("S4")
    v4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    q = quotient(s4, v4)
    assert q.preimage_indices(subgroup(q.image, [])) == v4.indices


def test_wreath_quotient_by_base():
    w = build_by_tag("wreath_c2_s3")
    base = core_series_subgroup(w, [2])
    assert base.order == 64
    q = quotient(w, base)
    assert q.order == 6
    imgs = q.image.elements()
    assert any(a * b != b * a for a in imgs for b in imgs)


def assert_sylow_sets(groups):
    """For every prime p of each group, _sylow_set is generated by its
    generators, has the p-part of the order and holds only p-elements."""
    for g in groups:
        g = PermGroup(g.degree, g.generators)  # its table built under the current limit
        u = g.universe()
        for p, e in prime_factors(g.order):
            s, gens = _sylow_set(g, p, DEFAULT_LIMITS)
            assert len(s) == p**e and u.closure(gens) == s
            assert all(p**e % u.perms[i].order() == 0 for i in s)


def test_sylow(corpus_groups, monkeypatch):
    s4 = build_by_tag("S4")
    assert sylow(s4, 2).order == 8
    assert sylow(s4, 3).order == 3
    assert sylow(s4, 5).order == 1
    assert sylow(build_by_tag("A5"), 5).order == 5
    for bad in (4, 3.5, 3.0, True):
        with pytest.raises(DomainError, match="not a prime"):
            sylow(s4, bad)
    with pytest.raises(ResourceLimitError, match="max_prime"):
        sylow(s4, 2**61 - 1)  # refused as a cap, not trial-divided
    groups = [g for _, g in corpus_groups]
    groups += [direct_product(symmetric(5), symmetric(4)), regular_wreath(3, symmetric(3))]
    assert_sylow_sets(groups)
    monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    assert_sylow_sets(groups)


def test_hall_subgroups():
    a5 = build_by_tag("A5")
    assert [h.order for h in hall_subgroups(a5, (2, 3))] == [12] * 5
    assert hall_subgroups(a5, (3, 5)) == []
    assert hall_subgroups(a5, (2, 5)) == []
    s4 = build_by_tag("S4")
    assert [h.order for h in hall_subgroups(s4, (2,))] == [8, 8, 8]
    assert [h.order for h in hall_subgroups(s4, (5,))] == [1]
    assert [h.order for h in hall_subgroups(build_by_tag("s3xc5"), (2, 5))] == [10, 10, 10]
    for bad in (4, 2.5, 2.0):
        with pytest.raises(DomainError, match="not a prime"):
            hall_subgroups(s4, (bad,))
    with pytest.raises(ResourceLimitError, match="max_prime"):
        hall_subgroups(s4, (2, 2**61 - 1))


@pytest.mark.parametrize("tag", ORACLE_TAGS + ("S5",))
def test_hall_subgroups_match_lattice(tag):
    """For every set of primes, the Hall search finds exactly the lattice's
    subgroups of order |G|_pi, in the same order."""
    g = build_by_tag(tag)
    lattice = all_subgroups(g)
    factors = prime_factors(g.order)
    for r in range(1, len(factors) + 1):
        for combo in combinations(factors, r):
            target = prod(p**e for p, e in combo)
            assert ([s.indices for s in hall_subgroups(g, [p for p, _ in combo])]
                    == [s.indices for s in lattice if s.order == target])


def prime_subsets(g, proper=False):
    primes = primes_of(g.order)
    top = len(primes) - 1 if proper else len(primes)
    return [c for r in range(top + 1) for c in combinations(primes, r)]


def test_hall_classes_match_the_every_pi_element_search(corpus_groups):
    """The Sylow-join search gives the same classes, with the same member
    sets in the same order, as joining every pi-element, on every corpus
    group and every proper set of its primes."""
    for tag, g in corpus_groups:
        for primes in prime_subsets(g, proper=True)[1:]:
            assert (_hall_classes(g, primes, DEFAULT_LIMITS)
                    == hall_classes_every_pi_element(g, primes)), (tag, primes)


def test_largest_normal_over_matches_the_lattice_scan(corpus_groups):
    """The class walk gives the lattice's largest normal subgroup over each
    normal floor, for every set of primes of |G|, on every corpus group."""
    for tag, g in corpus_groups:
        for floor in normal_subgroups(g):
            for primes in prime_subsets(g):
                assert (_largest_normal_over(g, floor.indices, primes, DEFAULT_LIMITS)
                        == largest_normal_over_by_lattice(g, floor.indices, primes)), (tag, primes)


def test_core_series_subgroup():
    s4 = build_by_tag("S4")
    assert core_series_subgroup(s4, [2]).order == 4
    assert core_series_subgroup(s4, [3]).order == 1
    assert core_series_subgroup(s4, [2, 3]).order == 24
    assert core_series_subgroup(build_by_tag("A4"), [2]).order == 4
    for bad in (1, 4, 0):
        with pytest.raises(DomainError, match="not a prime"):
            core_series_subgroup(s4, [bad])
    with pytest.raises(ResourceLimitError, match="max_prime"):
        core_series_subgroup(s4, [10**7])


def test_frattini():
    assert frattini(build_by_tag("Q8")).order == 2
    assert frattini(build_by_tag("S4")).order == 1
    assert frattini(build_by_tag("C12")).order == 2
    assert frattini(build_by_tag("D4")).order == 2


def test_maximal_subgroups_s4():
    orders = sorted(m.order for m in maximal_subgroups(build_by_tag("S4")))
    assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


@pytest.mark.parametrize("tag", ("S4", "A5", "f20", "sl23"))
def test_maximal_subgroups_are_read_once_per_lattice(tag, monkeypatch):
    """The maximal subgroups are the lattice's proper subgroups with no
    larger proper one above them, in lattice order with the lattice's
    generators; a second call reads them from the memo."""
    g = build_by_tag(tag)
    lattice = [s for s in all_subgroups(g) if s.order < g.order]
    want = [(s.indices, s.gens) for s in lattice
            if not any(s.indices < t.indices for t in lattice)]
    first = [(m.indices, m.gens) for m in maximal_subgroups(g)]
    monkeypatch.setattr(sigmagraph.group, "all_subgroups", None)
    assert first == [(m.indices, m.gens) for m in maximal_subgroups(g)] == want


def test_resource_caps_raise_with_cap_name():
    with pytest.raises(ResourceLimitError, match="max_subgroup_order"):
        all_subgroups(alternating(5), EngineLimits(max_subgroup_order=50))
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        symmetric(5).elements(EngineLimits(max_element_order=100))
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        normal_subgroups(symmetric(4), EngineLimits(max_element_order=10))
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        all_subgroups(symmetric(4), EngineLimits(max_subgroup_count=5))
    # the count cap admits exactly its value: S4 has 30 subgroups
    assert len(all_subgroups(symmetric(4), EngineLimits(max_subgroup_count=30))) == 30
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        all_subgroups(symmetric(4), EngineLimits(max_subgroup_count=29))
    with pytest.raises(ResourceLimitError, match="max_join_work"):
        all_subgroups(symmetric(4), EngineLimits(max_join_work=5))
    with pytest.raises(ResourceLimitError, match="max_join_work"):
        two_generated_subgroups(symmetric(4), EngineLimits(max_join_work=5))
    # the count cap sends prop 1.11 to the scan of pairs of pi-elements
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        maximal_subgroups(regular_wreath(2, symmetric(3)), DEFAULT_LIMITS)


def test_order_bound_stops_the_strong_generating_set():
    """max_order admits a group of exactly that order and stops a larger
    one, naming max_element_order, as soon as the walk over its Cayley
    graph finds one element more."""
    gens = symmetric(5).generators
    assert PermGroup(5, gens, max_order=120).order == 120
    with pytest.raises(ResourceLimitError, match=r"\[cap max_element_order=119\]"):
        PermGroup(5, gens, max_order=119)


def test_element_cap_holds_after_the_table_is_built():
    """A table built under the default caps is not handed out under a
    smaller max_element_order: the cap is checked before the cache."""
    g = symmetric(5)
    assert len(normal_subgroups(g)) == 3
    assert not is_sigma_soluble(g, ATOMIC)
    small = EngineLimits(max_element_order=100)
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        normal_subgroups(g, small)
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        is_sigma_soluble(g, ATOMIC, small)
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        g.elements(small)
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        g.universe(small)
    assert len(normal_subgroups(g)) == 3


def test_subgroups_of_a_table_built_above_the_default_cap():
    """Under a raised element cap, S7 (order 5040, above the default cap)
    is enumerated once, and the subgroups read in its table need no second
    check against the default cap; a call under the default cap raises."""
    g = symmetric(7)
    limits = EngineLimits(max_element_order=5040)
    c = sylow(g, 7, limits)
    n = normalizer(g, c, limits)
    assert (c.order, n.order) == (7, 42)
    c_set = frozenset(c.elements(limits))
    assert all(frozenset(x.inverse() * y * x for y in c_set) == c_set
               for x in n.elements(limits))
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        normalizer(g, c)


def test_cached_subgroup_families_are_keyed_by_the_limits():
    """A lattice or pool found under looser caps is not handed out under
    tighter ones: each call is decided by its own limits, whatever ran
    before on the same group."""
    g = symmetric(4)
    assert len(all_subgroups(g, EngineLimits(max_subgroup_count=30))) == 30
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        maximal_subgroups(g, EngineLimits(max_subgroup_count=29))
    assert len(two_generated_subgroups(g)) == 30
    with pytest.raises(ResourceLimitError, match="max_join_work"):
        two_generated_subgroups(g, EngineLimits(max_join_work=5))
    a5 = alternating(5)
    assert len(hall_subgroups(a5, (2, 3))) == 5
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        hall_subgroups(a5, (2, 3), EngineLimits(max_subgroup_count=1))


def test_raised_count_cap_leaves_the_default_cap_in_force():
    """The order-384 wreath group has 4676 subgroups: after its full lattice
    under a raised count cap, the default cap still stops maximal_subgroups
    on the same group object."""
    g = regular_wreath(2, symmetric(3))
    assert len(all_subgroups(g, EngineLimits(max_subgroup_count=5000))) == 4676
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        maximal_subgroups(g, DEFAULT_LIMITS)


def test_capped_lattice_caches_its_error_without_traceback():
    """The cap error cached at the lattice's memo key holds no traceback, so
    no frame of the join closure keeps the partial lattice alive; every
    repeat raises a fresh error with the same text and cap."""
    g = symmetric(4)
    limits = EngineLimits(max_subgroup_count=5)
    with pytest.raises(ResourceLimitError) as first:
        maximal_subgroups(g, limits)
    cached = g._cache[("all_subgroup_sets", limits.max_subgroup_order,
                       limits.max_subgroup_count, limits.max_join_work)]
    assert isinstance(cached, ResourceLimitError)
    for _ in range(2):
        with pytest.raises(ResourceLimitError) as again:
            maximal_subgroups(g, limits)
        assert again.value is not cached
        assert str(again.value) == str(cached) == str(first.value)
        assert (again.value.cap_name, again.value.cap_value) == ("max_subgroup_count", 5)
        assert cached.__traceback__ is None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(range(24)), min_size=0, max_size=3))
def test_generated_subgroup_matches_closure(picks):
    s4 = symmetric(4)
    elems = s4.elements()
    gens = [elems[i] for i in picks]
    sub = subgroup(s4, gens)
    assert frozenset(sub.elements()) == closure(4, gens)
    assert 24 % sub.order == 0


def test_deterministic_element_order():
    a = symmetric(4).elements()
    b = symmetric(4).elements()
    assert a == b
    assert list(a) == sorted(a, key=lambda p: p.images)
