import importlib
import inspect
from collections import Counter
from itertools import combinations
from math import prod

import pytest
import sigmagraph.group
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ORACLE_TAGS, brute_subgroup_sets, chief_series_terms,
                     closure, elementary_layer_by_normal_lattice, frattini,
                     hall_classes_every_pi_element,
                     largest_normal_over_by_lattice, layer_count_by_closures,
                     layer_count_by_lattice,
                     naive_centralizer, naive_normalizer, rebuilt)
from sigmagraph.errors import (CrossCheckError, DomainError, GroupInputError,
                               ResourceLimitError)
from sigmagraph.group import (DEFAULT_LIMITS, MAX_DEGREE, EngineLimits, PermGroup,
                              Subgroup, _elementary_layer, _hall_classes,
                              _largest_normal_over, _layer_ceiling, _layer_count,
                              _Universe,
                              all_subgroups, centralizer, centralizer_of_factor,
                              chief_series, core_series_subgroup,
                              hall_subgroups, is_normal,
                              maximal_subgroups, normal_subgroups, normalizer,
                              quotient, subgroup, sylow, two_generated_subgroups)
from sigmagraph.perm import Permutation
from sigmagraph.predicates import f_class_subgroup, is_sigma_soluble
from sigmagraph.sigma import ATOMIC, prime_factors, primes_of, sigma_of_group
from sigmagraph.zoo import (alternating, build_by_tag, cyclic, direct_product, regular_wreath,
                            s5_subgroups, standard_partitions, symmetric, zoo)


def sets_of(subs):
    return {frozenset(s.elements()) for s in subs}


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
    for limits in (None, 0, True, 6.0, "6", {"max_element_order": 6}):
        with pytest.raises(GroupInputError, match="limits must be an EngineLimits"):
            PermGroup(3, [], limits)


def test_an_int_cap_is_refused_not_read_as_the_element_cap():
    """The caps are one EngineLimits: an int in its place, as an order
    bound was once given, is an input error, not a bound."""
    gens = symmetric(5).generators
    with pytest.raises(GroupInputError, match="limits must be an EngineLimits, got 120"):
        PermGroup(5, gens, 120)
    assert PermGroup(5, gens).limits is DEFAULT_LIMITS


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
    assert len(all_subgroups(rebuilt(symmetric(6), max_subgroup_order=720))) == 1455
    wreath = regular_wreath(2, symmetric(3))
    assert len(all_subgroups(rebuilt(wreath, max_subgroup_count=5000))) == 4676


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


def test_a_degree_past_a_byte_is_refused_before_the_walk(cayley_walks):
    """Images are bytes, so degree 256 is built and 257 is refused, naming
    max_degree, before any walk."""
    assert MAX_DEGREE == 256
    assert PermGroup(256, [Permutation.from_cycles(256, [(0, 255)])]).order == 2
    with pytest.raises(ResourceLimitError, match=r"\[cap max_degree=256\]"):
        PermGroup(257, [Permutation.from_cycles(257, [(0, 256)])])
    assert cayley_walks == [256]


def test_a_point_past_a_byte_lies_outside_every_group():
    """A permutation moving a point past 255 is outside the table and the
    quotient source (DomainError), not a bare ValueError from bytes()."""
    s4 = build_by_tag("S4")
    far = Permutation.from_cycles(300, [(0, 299)])
    v4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                       Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    for read in (s4.universe().idx_of, quotient(s4, v4).project,
                 quotient(s4, subgroup(s4, [])).project):
        with pytest.raises(DomainError):
            read(far)


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
    subs = normal_subgroups(g) + list(cs)
    subs += [f_class_subgroup(g, cls) for sigma in standard_partitions()
             for cls in sigma_of_group(g, sigma)]
    subs += [core_series_subgroup(g, [p]) for p in primes]
    subs += [core_series_subgroup(g, [q for q in primes if q != p]) for p in primes]
    subs += [f(g, h) for h in all_subgroups(g) for f in (centralizer, normalizer)]
    subs += [centralizer_of_factor(g, h, k) for k, h in zip(cs, cs[1:])]
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
    assert [t.order for t in series] == [1, 4, 12, 24]
    assert factor_orders(series) == [4, 3, 2]
    # each factor is a genuine quotient of consecutive terms
    for below, above in zip(series, series[1:]):
        kernel = subgroup(above.group, below.group.generators)
        assert quotient(above.group, kernel).order == above.order // below.order


def test_chief_series_both_preferences():
    """The library's series is the smallest-first one; the oracle builds the
    largest-first one, and both are chief series of C6."""
    c6 = build_by_tag("C6")
    small = list(chief_series(c6))
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
    """For every prime p of each group, sylow is generated by its
    generators, has the p-part of the order and holds only p-elements."""
    for g in groups:
        g = PermGroup(g.degree, g.generators)  # its table built under the current limit
        u, elems = g.universe(), g.elements()
        for p, e in prime_factors(g.order):
            ps = sylow(g, p)
            s, gens = ps.indices, ps.gens
            assert len(s) == p**e and u.closure(gens) == s
            assert all(p**e % elems[i].order() == 0 for i in s)


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
            assert (_hall_classes(g, primes)
                    == hall_classes_every_pi_element(g, primes)), (tag, primes)


def test_largest_normal_over_matches_the_lattice_scan(corpus_groups):
    """The class walk gives the lattice's largest normal subgroup over each
    normal floor, for every set of primes of |G|, on every corpus group."""
    for tag, g in corpus_groups:
        for floor in normal_subgroups(g):
            for primes in prime_subsets(g):
                assert (_largest_normal_over(g, floor.indices, primes)
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
    """Every cap is read from the group's own limits and raises naming
    itself."""
    with pytest.raises(ResourceLimitError, match="max_subgroup_order"):
        all_subgroups(rebuilt(alternating(5), max_subgroup_order=50))
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        rebuilt(symmetric(5), max_element_order=100)
    with pytest.raises(ResourceLimitError, match="max_element_order"):
        rebuilt(symmetric(4), max_element_order=10)
    s4 = symmetric(4)
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        all_subgroups(rebuilt(s4, max_subgroup_count=5))
    # the count cap admits exactly its value: S4 has 30 subgroups
    assert len(all_subgroups(rebuilt(s4, max_subgroup_count=30))) == 30
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        all_subgroups(rebuilt(s4, max_subgroup_count=29))
    with pytest.raises(ResourceLimitError, match="max_join_work"):
        all_subgroups(rebuilt(s4, max_join_work=5))
    with pytest.raises(ResourceLimitError, match="max_join_work"):
        two_generated_subgroups(rebuilt(s4, max_join_work=5))
    # the count cap sends prop 1.11 to the scan of pairs of pi-elements
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        maximal_subgroups(regular_wreath(2, symmetric(3)))


def test_order_bound_stops_the_strong_generating_set():
    """max_element_order admits a group of exactly that order and stops a
    larger one, naming the cap, as soon as the walk over its Cayley graph
    finds one element more."""
    gens = symmetric(5).generators
    assert PermGroup(5, gens, EngineLimits(max_element_order=120)).order == 120
    with pytest.raises(ResourceLimitError, match=r"\[cap max_element_order=119\]"):
        PermGroup(5, gens, EngineLimits(max_element_order=119))


def test_element_cap_holds_after_the_table_is_built():
    """A group's element cap is fixed when it is built: S5's table, normal
    lattice and series built under the default caps let no group on the
    same generators through under a smaller max_element_order."""
    g = symmetric(5)
    assert len(normal_subgroups(g)) == 3
    assert not is_sigma_soluble(g, ATOMIC)
    with pytest.raises(ResourceLimitError, match=r"\[cap max_element_order=100\]"):
        rebuilt(g, max_element_order=100)
    assert len(normal_subgroups(g)) == 3


def test_subgroups_of_a_table_built_above_the_default_cap():
    """Under a raised element cap, S7 (order 5040, above the default cap)
    is enumerated once, its subgroups are read in its table, and a subgroup
    built as a group of its own inherits the raised caps; under the default
    caps the same generators are refused."""
    limits = EngineLimits(max_element_order=5040)
    gens = [Permutation.from_cycles(7, [tuple(range(7))]), Permutation.from_cycles(7, [(0, 1)])]
    g = PermGroup(7, gens, limits)
    c = sylow(g, 7)
    n = normalizer(g, c)
    assert (c.order, n.order) == (7, 42)
    c_set = frozenset(c.elements())
    assert all(frozenset(x.inverse() * y * x for y in c_set) == c_set
               for x in n.elements())
    assert (n.group.order, n.group.limits) == (42, limits)
    with pytest.raises(ResourceLimitError, match=r"\[cap max_element_order=5000\]"):
        PermGroup(7, gens)


def test_subgroup_families_are_decided_by_each_groups_caps():
    """Two groups on the same generators under different caps: each
    lattice, pool and Hall search is decided by its own group's caps,
    whichever of the two ran first."""
    s4 = symmetric(4)
    loose, tight = rebuilt(s4, max_subgroup_count=30), rebuilt(s4, max_subgroup_count=29)
    assert len(all_subgroups(loose)) == 30
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        maximal_subgroups(tight)
    assert len(maximal_subgroups(loose)) == 8
    short = rebuilt(s4, max_join_work=5)
    with pytest.raises(ResourceLimitError, match="max_join_work"):
        two_generated_subgroups(short)
    assert len(two_generated_subgroups(s4)) == 30
    a5 = alternating(5)
    assert len(hall_subgroups(a5, (2, 3))) == 5
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        hall_subgroups(rebuilt(a5, max_subgroup_count=1), (2, 3))


def test_raised_count_cap_leaves_the_default_cap_in_force():
    """The order-384 wreath group has 4676 subgroups: a group on its
    generators under a raised count cap gets the full lattice, and the
    group under the default caps is still stopped by maximal_subgroups,
    whichever ran first."""
    g = regular_wreath(2, symmetric(3))
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        maximal_subgroups(g)
    assert len(all_subgroups(rebuilt(g, max_subgroup_count=5000))) == 4676
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        maximal_subgroups(g)


def test_capped_lattice_caches_its_error_without_traceback():
    """The cap error cached at the lattice's memo key holds no traceback, so
    no frame of the join closure keeps the partial lattice alive; every
    repeat raises a fresh error with the same text and cap."""
    g = rebuilt(symmetric(4), max_subgroup_count=5)
    with pytest.raises(ResourceLimitError) as first:
        maximal_subgroups(g)
    cached = g._cache["all_subgroup_sets"]
    assert isinstance(cached, ResourceLimitError)
    for _ in range(2):
        with pytest.raises(ResourceLimitError) as again:
            maximal_subgroups(g)
        assert again.value is not cached
        assert str(again.value) == str(cached) == str(first.value)
        assert (again.value.cap_name, again.value.cap_value) == ("max_subgroup_count", 5)
        assert cached.__traceback__ is None


def layer_groups() -> list[PermGroup]:
    """Every zoo group, every subgroup of S5, S3 x S3 (E = C3 x C3, an odd
    prime of rank 2), C2^3, where the ceiling is met, A4 x C3 (at p = 3, a
    class of four conjugate C3 over E = C3, so an odd q = p with a class
    longer than 1), S4 x C2, S4 x S4 (order-6 cosets over E = C2^4),
    C3^3 : C2 (an odd p with d = 3) and C3 wr C3."""
    c2 = cyclic(2)
    c3_cubed_by_c2 = PermGroup(9, [Permutation.from_cycles(9, c) for c in (
        [(0, 1, 2)], [(3, 4, 5)], [(6, 7, 8)], [(1, 2), (4, 5), (7, 8)])])
    return ([e.build() for e in zoo()] + [g for _, g in s5_subgroups()]
            + [direct_product(symmetric(3), symmetric(3)), direct_product(c2, direct_product(c2, c2)),
               direct_product(alternating(4), cyclic(3)), direct_product(symmetric(4), c2),
               direct_product(symmetric(4), symmetric(4)), c3_cubed_by_c2,
               regular_wreath(3, cyclic(3))])


def test_layer_count_is_exact_and_within_its_ceiling():
    """At each prime p, the layer is E = Omega_1(Z(O_p(G))), as read off the
    normal lattice; its count is the number of lattice subgroups H with
    |HE : E| equal to 1 or a prime; and the ceiling for E's order bounds
    it, so the order-only ceiling (the largest over the p^d dividing |G|)
    does too: on each of ``layer_groups`` (caps raised for the larger
    ones)."""
    c2 = cyclic(2)
    for group in layer_groups():
        g = rebuilt(group, max_subgroup_order=max(group.order, 500), max_subgroup_count=5000)
        for p, e in prime_factors(g.order):
            e_set = _elementary_layer(g, p)
            assert e_set == elementary_layer_by_normal_lattice(g, p)
            ceilings = {p ** d: _layer_ceiling(g.order, p, d) for d in range(e + 1)}
            ceiling = ceilings[len(e_set)]
            assert _layer_count(g, e_set, ceiling)[0] == layer_count_by_lattice(g, e_set) <= ceiling
            assert ceiling <= max(ceilings.values())  # the order-only ceiling
    s3xs3 = direct_product(symmetric(3), symmetric(3))
    e_set = _elementary_layer(s3xs3, 3)
    assert (len(e_set), _layer_count(s3xs3, e_set, 100)[0]) == (9, 44)
    c2_cubed = direct_product(c2, direct_product(c2, c2))
    assert _layer_count(c2_cubed, _elementary_layer(c2_cubed, 2), 100)[0] == _layer_ceiling(8, 2, 3) == 16
    a4xc3 = direct_product(alternating(4), cyclic(3))
    s4xc2 = direct_product(symmetric(4), c2)
    for g, counts in ((a4xc3, [25, 24]), (s4xc2, [83, 24])):
        assert [_layer_count(g, _elementary_layer(g, p), 100)[0] for p in (2, 3)] == counts


def test_layer_count_of_the_wreath_base():
    """wreath_c2_s3 = C2^6 : S3: its base is the layer at p = 2, and its 4676
    subgroups split by |H : H ∩ E| as 2825 + 1521 + 185 + 145.  The layer
    count is the first three, 4531, past the default count cap, from 8742
    elements of E taken up for joins."""
    g = rebuilt(regular_wreath(2, symmetric(3)), max_subgroup_count=5000)
    e_set = _elementary_layer(g, 2)
    split = Counter(s.order // len(s.indices & e_set) for s in all_subgroups(g))
    assert len(e_set) == 64
    assert (split[1], split[2], split[3], split[6], split.total()) == (2825, 1521, 185, 145, 4676)
    assert _layer_count(g, e_set, 5000) == (4531, 8742)
    assert _layer_count(g, e_set, 4000)[0] > 4000  # stops once past the cap


def test_layer_count_matches_the_closure_walk():
    """The layer count, its exponent-p joins charged a K at a time, gives
    the (count, join work) of the walk of generic closures at stops 0, 50,
    the default count cap and none, and the same join-work error under a cap
    that fires mid-walk: on each of ``layer_groups`` at every prime."""
    groups = layer_groups()
    c3_cubed_by_c2 = groups[-2]
    assert c3_cubed_by_c2.order == 54 and len(_elementary_layer(c3_cubed_by_c2, 3)) == 27
    mid_walk = 0
    for g in groups:
        for p, _ in prime_factors(g.order):
            e_set = _elementary_layer(g, p)
            for stop in (0, 50, DEFAULT_LIMITS.max_subgroup_count, 10**9):
                assert _layer_count(g, e_set, stop) == layer_count_by_closures(g, e_set, stop), (g, p, stop)
            work = _layer_count(g, e_set, 10**9)[1]
            for cap in {c for c in (work // 2, work - 1) if c > 0}:
                capped = rebuilt(g, max_join_work=cap)
                with pytest.raises(ResourceLimitError) as ours:
                    _layer_count(capped, e_set, 10**9)
                with pytest.raises(ResourceLimitError) as theirs:
                    layer_count_by_closures(capped, e_set, 10**9)
                assert (str(ours.value), ours.value.cap_name, ours.value.cap_value) == (
                    str(theirs.value), theirs.value.cap_name, theirs.value.cap_value) == (
                    f"subgroup search exceeded its closure budget [cap max_join_work={cap}]",
                    "max_join_work", cap)
                mid_walk += 1
            assert _layer_count(rebuilt(g, max_join_work=max(work, 1)), e_set, 10**9)[1] == work
    assert mid_walk > 100


def test_wreath_count_cap_is_decided_by_the_layer_count_up_to_4530(monkeypatch):
    """Under max_subgroup_count = c, wreath_c2_s3's lattice is refused by its
    layer count (4531) for c < 4531, with no closure beyond the count's own:
    the search never runs.  For 4531 <= c < 4676 the search refuses it, and
    at 4676 it completes.  A refusal by the count is the search's own error,
    text and cap alike.  The count's join work is the search's: the cap
    bounds them together, and either raises the search's join-work error."""
    wreath = regular_wreath(2, symmetric(3))
    closures = []
    real = _Universe.closure
    monkeypatch.setattr(_Universe, "closure",
                        lambda u, *args, **kwargs: closures.append(1) or real(u, *args, **kwargs))

    for cap in (4000, 4530, 4531, 4675):
        closures.clear()
        try:
            sigmagraph.group._refuse_past_the_count_cap(rebuilt(wreath, max_subgroup_count=cap))
            by_count = False
        except ResourceLimitError:
            by_count = True
        count_closures = len(closures)
        closures.clear()
        with pytest.raises(ResourceLimitError) as exc:
            maximal_subgroups(rebuilt(wreath, max_subgroup_count=cap))
        err = exc.value
        assert by_count == (cap < 4531)
        assert (len(closures) == count_closures) == by_count
        expected = (f"subgroup family grew past the count cap [cap max_subgroup_count={cap}]",
                    "max_subgroup_count", cap)
        assert (str(err), err.cap_name, err.cap_value) == expected
    assert len(all_subgroups(rebuilt(wreath, max_subgroup_count=4676))) == 4676
    for work in (8741, 8742):  # the count takes up 8742, the search none more
        with pytest.raises(ResourceLimitError) as exc:
            all_subgroups(rebuilt(wreath, max_subgroup_count=4676, max_join_work=work))
        assert (str(exc.value), exc.value.cap_name, exc.value.cap_value) == (
            f"subgroup search exceeded its closure budget [cap max_join_work={work}]",
            "max_join_work", work)


def test_groups_built_from_a_group_inherit_its_caps():
    """A subgroup built as a group of its own, and a quotient's image, are
    searched under the caps of the group they come from."""
    g = rebuilt(symmetric(4), max_subgroup_count=5)
    d4 = sylow(g, 2).group
    assert d4.limits is g.limits
    with pytest.raises(ResourceLimitError, match="max_subgroup_count"):
        all_subgroups(d4)
    image = quotient(g, core_series_subgroup(g, [2])).image
    assert (image.order, image.limits) == (6, g.limits)


def test_all_subgroups_refuses_limits_other_than_the_groups():
    """all_subgroups still takes a limits argument, equal to the group's
    own caps only; other caps are refused, not applied."""
    g = symmetric(4)
    assert len(all_subgroups(g, DEFAULT_LIMITS)) == len(all_subgroups(g, EngineLimits())) == 30
    with pytest.raises(DomainError, match="caps it was built with"):
        all_subgroups(g, EngineLimits(max_subgroup_count=29))


# where caps are still given: the constructor, the sweep and the fixtures
# that build groups, and the shims that accept only a group's own caps
TAKES_LIMITS = {"group.PermGroup", "group.all_subgroups", "graphs.build_hawkes",
                "graphs.build_hall", "verify.run_corpus_sweep", "verify.factorization_fixtures",
                "zoo.build_by_tag"}


def test_no_public_function_takes_limits_but_the_construction_points():
    """A group's caps are fixed when it is built, so no public function or
    method of the package takes a limits argument of its own but those
    that build groups and the shims."""
    found = set()
    for module_name in ("bsgs", "cli", "graphs", "group", "perm", "predicates", "sigma",
                        "verify", "zoo"):
        module = importlib.import_module(f"sigmagraph.{module_name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = [(name, value)]
            if inspect.isclass(value):
                members += [(f"{name}.{attr}", fn) for attr, fn in vars(value).items()
                            if not attr.startswith("_") and inspect.isfunction(fn)]
            for qualname, fn in members:
                if callable(fn) and "limits" in inspect.signature(fn).parameters:
                    found.add(f"{module_name}.{qualname}")
    assert found == TAKES_LIMITS


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
