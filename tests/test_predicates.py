import pytest

from oracles import (ORACLE_TAGS, dispersive_by_ordering_search,
                     f_class_subgroup_by_normal_complement,
                     f_class_subgroup_by_pullback,
                     is_class_nilpotent_by_chief_factors, is_pi_central_factor,
                     is_pi_normal_maximal, is_schmidt_by_lattice,
                     nilpotent_by_sylows, schmidt_pairs_every_generator,
                     schmidt_subgroups,
                     sigma_length_by_quotients, sigma_nilpotent_by_series,
                     sigma_soluble_by_series)
from sigmagraph.errors import DomainError
from sigmagraph.group import (PermGroup, _Universe, all_subgroups, maximal_subgroups,
                              normal_subgroups, quotient, subgroup)
from sigmagraph.perm import Permutation
from sigmagraph.predicates import (_schmidt_pairs, f_class_subgroup, is_class_nilpotent,
                                   is_critical, is_nilpotent, is_pi_closed,
                                   is_schmidt, is_sigma_dispersive,
                                   is_sigma_nilpotent, is_sigma_soluble,
                                   schmidt_decomposition, schmidt_types,
                                   sigma_length)
from sigmagraph.sigma import (ATOMIC, PiSet, SigmaPartition, primes_of,
                              sigma_of_group)
from sigmagraph.verify import run_corpus_sweep
from sigmagraph.zoo import build_by_tag, regular_wreath, sl2_3, standard_partitions, symmetric

TWO_THREE = SigmaPartition(explicit_classes=(frozenset({2, 3}),))
ALL_IN_ONE = SigmaPartition(explicit_classes=(frozenset({2, 3, 5}),))
C2 = ATOMIC.classify(2)
C3 = ATOMIC.classify(3)

SMALL_TAGS = ("C2", "C6", "C12", "C30", "V4", "D4", "D5", "D6", "Q8", "S3",
              "S4", "A4", "A5", "sl23", "dic3", "c7_c3", "f20", "s3xc5")


def pi_of(G, sigma, primes):
    return PiSet(frozenset(sigma.classify(p) for p in primes))


def set_partitions(items):
    """Every partition of the list items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


def test_sigma_soluble_examples():
    assert is_sigma_soluble(build_by_tag("S4"), ATOMIC)
    assert not is_sigma_soluble(build_by_tag("A5"), ATOMIC)
    assert not is_sigma_soluble(build_by_tag("A5"), TWO_THREE)
    assert is_sigma_soluble(build_by_tag("A5"), ALL_IN_ONE)
    assert not is_sigma_soluble(build_by_tag("S6"), ATOMIC)
    assert is_sigma_soluble(build_by_tag("wreath_c2_s3"), TWO_THREE)


def test_sigma_nilpotent_examples():
    assert is_sigma_nilpotent(build_by_tag("C30"), ATOMIC)
    assert not is_sigma_nilpotent(build_by_tag("S3"), ATOMIC)
    assert is_sigma_nilpotent(build_by_tag("S3"), TWO_THREE)
    assert not is_sigma_nilpotent(build_by_tag("S4"), ATOMIC)
    assert is_sigma_nilpotent(build_by_tag("dic3"), TWO_THREE)
    assert not is_sigma_nilpotent(build_by_tag("s3xc5"), ATOMIC)


def test_nilpotent_examples():
    for tag in ("Q8", "C30", "D4", "C12", "V4"):
        assert is_nilpotent(build_by_tag(tag))
    for tag in ("S3", "A4", "D5", "sl23", "S6"):
        assert not is_nilpotent(build_by_tag(tag))


def test_trivial_group_degenerates():
    one = PermGroup(2, [])
    assert is_sigma_soluble(one, ATOMIC)
    assert is_sigma_nilpotent(one, ATOMIC)
    assert is_nilpotent(one)
    assert is_sigma_dispersive(one, ATOMIC)
    assert not is_schmidt(one)
    assert not is_critical(one, ATOMIC)
    assert sigma_length(one, C2) == 0


@pytest.mark.parametrize("tag", SMALL_TAGS)
def test_class_nilpotency_routes_agree(tag):
    """Normal-complement route vs chief-factor route, every class of every
    standard partition, both chief-series tie-breaks."""
    g = build_by_tag(tag)
    for sigma in standard_partitions():
        for cls in sigma_of_group(g, sigma):
            fast = is_class_nilpotent(g, cls)
            assert fast == is_class_nilpotent_by_chief_factors(g, cls, prefer="smallest")
            assert fast == is_class_nilpotent_by_chief_factors(g, cls, prefer="largest")


@pytest.mark.parametrize("tag", SMALL_TAGS)
def test_f_class_routes_agree(tag):
    """Class-walk pullback vs quotient-group pullback vs normal-complement
    scan; neither the walk nor the lattice scan gives generators, so both
    derive the same canonical ones."""
    g = build_by_tag(tag)
    for sigma in standard_partitions():
        for cls in sigma_of_group(g, sigma):
            a = f_class_subgroup(g, cls)
            b = f_class_subgroup_by_pullback(g, cls)
            c = f_class_subgroup_by_normal_complement(g, cls)
            assert a.indices == b.indices == c.indices
            assert a.gens == c.gens


@pytest.mark.parametrize("tag", ORACLE_TAGS)
def test_normal_hall_predicates_match_oracles_on_every_partition(tag):
    """Sigma-nilpotency, nilpotency, class-local nilpotency and dispersion,
    all decided by pi-closure, and sigma-solubility, decided by a walk up
    the normal subgroups, against the chief-factor, Sylow and tower-schedule
    routes, under every set partition of the primes of |G|."""
    g = build_by_tag(tag)
    assert is_nilpotent(g) == nilpotent_by_sylows(g)
    for blocks in set_partitions(list(primes_of(g.order))):
        sigma = SigmaPartition(tuple(map(frozenset, blocks)))
        soluble = is_sigma_soluble(g, sigma)
        assert soluble == sigma_soluble_by_series(g, sigma, "smallest")
        assert soluble == sigma_soluble_by_series(g, sigma, "largest")
        nilpotent = is_sigma_nilpotent(g, sigma)
        assert nilpotent == sigma_nilpotent_by_series(g, sigma, "smallest")
        assert nilpotent == sigma_nilpotent_by_series(g, sigma, "largest")
        assert is_sigma_dispersive(g, sigma) == dispersive_by_ordering_search(g, sigma)
        for cls in sigma_of_group(g, sigma):
            assert is_class_nilpotent(g, cls) == is_class_nilpotent_by_chief_factors(g, cls)


def test_normal_hall_predicates_skip_the_normal_lattice():
    """Sigma-nilpotency and dispersion read pi-closures only: on a fresh
    group they build neither the normal lattice nor a chief series.  Nor
    does anything else in a corpus sweep: solubility, F_i and the class
    length walk up the normal subgroups one class at a time."""
    g = regular_wreath(2, symmetric(3))
    for sigma in (ATOMIC, TWO_THREE):
        is_sigma_nilpotent(g, sigma)
        is_sigma_dispersive(g, sigma)
    assert "normal_sets" not in g._cache and "chief_series" not in g._cache
    swept = (("S4", symmetric(4)), ("sl23", sl2_3()),
             ("wreath_c2_s3", regular_wreath(2, symmetric(3))))
    assert all(r.verdict != "FAIL" for r in run_corpus_sweep(swept, standard_partitions()))
    for _, g in swept:
        assert "normal_sets" not in g._cache and "chief_series" not in g._cache


def test_f_class_examples():
    s4 = build_by_tag("S4")
    assert f_class_subgroup(s4, C2).order == 4
    assert f_class_subgroup(s4, C3).order == 12
    s3 = build_by_tag("S3")
    assert f_class_subgroup(s3, C2).order == 6
    assert f_class_subgroup(s3, C3).order == 3


def test_jordan_holder_robustness():
    """Solubility and nilpotency verdicts agree across chief-series choices:
    the library's series against the largest-first series of the oracle."""
    for tag in SMALL_TAGS:
        g = build_by_tag(tag)
        for sigma in standard_partitions():
            assert (is_sigma_soluble(g, sigma)
                    == sigma_soluble_by_series(g, sigma, "largest"))
            assert (is_sigma_nilpotent(g, sigma)
                    == sigma_nilpotent_by_series(g, sigma, "largest"))


def test_schmidt_examples():
    for tag in ("S3", "A4", "sl23", "dic3", "c7_c3"):
        assert is_schmidt(build_by_tag(tag)), tag
    for tag in ("C6", "Q8", "D4", "D6", "S4", "f20", "A5", "s3xc5"):
        assert not is_schmidt(build_by_tag(tag)), tag


def test_schmidt_shape():
    shapes = {"S3": (3, 2), "A4": (2, 3), "sl23": (2, 3), "dic3": (3, 2),
              "c7_c3": (7, 3)}
    for tag, (p, q) in shapes.items():
        sh = schmidt_decomposition(build_by_tag(tag))
        assert (sh.p, sh.q) == (p, q), tag
        assert sh.normal_sylow.order == sh.normal_sylow.group.order
        # D6 has a normal Sylow 3 but no cyclic Sylow 2, so no shape
    assert schmidt_decomposition(build_by_tag("D6")) is None
    assert schmidt_decomposition(build_by_tag("S4")) is None


def test_schmidt_f_subgroup_shape():
    """On a Schmidt group P . <x> the fitting-style subgroup for class(p) is
    exactly P<x^q>; dic3 is the case with x^q nontrivial."""
    for tag in ("S3", "A4", "sl23", "dic3", "c7_c3"):
        g = build_by_tag(tag)
        sh = schmidt_decomposition(g)
        xq = sh.complement_generator
        for _ in range(sh.q - 1):
            xq = xq * sh.complement_generator
        expected = subgroup(g, list(sh.normal_sylow.group.generators) + [xq])
        got = f_class_subgroup(g, ATOMIC.classify(sh.p))
        assert got.indices == expected.indices, tag
    assert f_class_subgroup(build_by_tag("dic3"), C3).order == 6


@pytest.mark.parametrize("tag", ORACLE_TAGS + ("S5",))
def test_nilpotency_and_schmidt_match_oracles(tag):
    """On the group and every subgroup of it: is_nilpotent against Sylow
    normality, is_schmidt against the full lattice.  The walk over the
    two-generated subgroups finds exactly the Schmidt subgroups of the
    lattice oracle, with p the prime of the normal Sylow subgroup, and
    schmidt_types is the set of their types."""
    g = build_by_tag(tag)
    subs = all_subgroups(g)
    lattice = [s for s in subs if is_schmidt_by_lattice(s.group)]
    found = schmidt_subgroups(g)
    assert [h.indices for h, _, _ in found] == [s.indices for s in lattice]
    for h, p, q in found:
        shape = schmidt_decomposition(h.group)
        assert (p, q) == (shape.p, shape.q)
    assert schmidt_types(g) == {(p, q) for _, p, q in found}
    for s in subs:
        assert is_nilpotent(s.group) == nilpotent_by_sylows(s.group)
        assert is_schmidt(s.group) == any(s.indices == t.indices for t in lattice)


def test_schmidt_types_match_walk_above_lattice_caps():
    """wreath_c2_s3 is beyond the lattice caps; the pair search and the walk
    over its two-generated subgroups still give the same Schmidt types."""
    g = build_by_tag("wreath_c2_s3")
    assert schmidt_types(g) == {(p, q) for _, p, q in schmidt_subgroups(g)}


@pytest.mark.parametrize("tag", ORACLE_TAGS + ("S5", "A6", "wreath_c2_s3"))
def test_schmidt_pairs_close_each_orbit_of_cyclic_subgroups_once(tag):
    """For each (p, q, y), the pairs list the distinct subgroups of the walk
    that closes every p-element's y-orbit, in the same first-seen order,
    with no more entries."""
    g = build_by_tag(tag)
    ours = [(p, q, y, list(subgroups)) for p, q, y, subgroups in _schmidt_pairs(g)]
    theirs = schmidt_pairs_every_generator(g)
    assert [t[:3] for t in ours] == [t[:3] for t in theirs]
    for (*_, mine), (*_, every) in zip(ours, theirs):
        assert list(dict.fromkeys(mine)) == list(dict.fromkeys(every))
        assert len(mine) <= len(every)


@pytest.mark.parametrize("tag, orbits, closures", [
    pytest.param("A6", 83, 19, id="A6-83"),
    pytest.param("S5", 22, 6, id="S5-22"),
    pytest.param("S6", 90, 22, id="S6-90"),
    pytest.param("wreath_c2_s3", 106, 106, id="wreath_c2_s3-106"),
])
def test_schmidt_types_closure_counts(monkeypatch, tag, orbits, closures):
    """schmidt_types takes up one y-orbit per orbit of cyclic p-subgroups
    and closes it unless its element orders refute a p-group: A6 83 orbits
    taken up (731 when every p-element's orbit is closed), 19 of them
    closed; S5 22 (132), 6 closed; S6 90 (776), 22 closed; and
    wreath_c2_s3 106 (418), all closed."""
    g = build_by_tag(tag)
    g.universe().conjugacy_classes()
    calls, refuted = [], []
    closure, refutes = _Universe.closure, _Universe.refutes
    monkeypatch.setattr(_Universe, "closure",
                        lambda u, *args, **kwargs: calls.append(1) or closure(u, *args, **kwargs))
    monkeypatch.setattr(_Universe, "refutes",
                        lambda u, *args: refuted.append(refutes(u, *args)) or refuted[-1])
    schmidt_types(g)
    assert (len(calls) + sum(refuted), len(calls)) == (orbits, closures)


def test_schmidt_types_s6():
    """S6 has no Schmidt subgroup of type (2, 5).  Its five-cycle moves the
    reflections of a D5, which close to order 10, below the 2-part 16: a
    pair counts only when its closure divides the p-part."""
    s6 = build_by_tag("S6")
    assert schmidt_types(s6) == {(2, 3), (3, 2), (5, 2)}
    assert not is_schmidt(s6)


def critical_oracle(g, sigma):
    if g.is_trivial or is_sigma_nilpotent(g, sigma):
        return False
    return all(is_sigma_nilpotent(s.group, sigma)
               for s in all_subgroups(g) if s.order < g.order)


@pytest.mark.parametrize("tag", SMALL_TAGS)
def test_critical_matches_definition(tag):
    g = build_by_tag(tag)
    for sigma in standard_partitions():
        assert is_critical(g, sigma) == critical_oracle(g, sigma), sigma


def test_critical_examples():
    for tag in ("S3", "A4", "sl23", "dic3", "c7_c3"):
        assert is_critical(build_by_tag(tag), ATOMIC), tag
    assert not is_critical(build_by_tag("S4"), ATOMIC)
    assert not is_critical(build_by_tag("S3"), TWO_THREE)
    assert is_critical(build_by_tag("c7_c3"), TWO_THREE)


def test_critical_implies_schmidt_on_corpus_sample():
    for tag in SMALL_TAGS:
        g = build_by_tag(tag)
        for sigma in standard_partitions():
            if is_critical(g, sigma):
                assert is_schmidt(g)


def test_pi_closed():
    s4 = build_by_tag("S4")
    assert not is_pi_closed(s4, pi_of(s4, ATOMIC, [2]))
    assert not is_pi_closed(s4, pi_of(s4, ATOMIC, [3]))
    assert is_pi_closed(s4, pi_of(s4, ATOMIC, [2, 3]))
    a4 = build_by_tag("A4")
    assert is_pi_closed(a4, pi_of(a4, ATOMIC, [2]))
    assert not is_pi_closed(a4, pi_of(a4, ATOMIC, [3]))
    sl = build_by_tag("sl23")
    assert is_pi_closed(sl, pi_of(sl, ATOMIC, [2]))
    assert not is_pi_closed(sl, pi_of(sl, ATOMIC, [3]))
    assert is_pi_closed(s4, PiSet(frozenset()))


@pytest.mark.parametrize("tag", SMALL_TAGS)
def test_dispersive_matches_ordering_search(tag):
    g = build_by_tag(tag)
    for sigma in standard_partitions():
        assert is_sigma_dispersive(g, sigma) == dispersive_by_ordering_search(g, sigma)


def test_dispersive_examples():
    assert is_sigma_dispersive(build_by_tag("S3"), ATOMIC)
    assert is_sigma_dispersive(build_by_tag("A4"), ATOMIC)
    assert is_sigma_dispersive(build_by_tag("dic3"), ATOMIC)
    assert not is_sigma_dispersive(build_by_tag("S4"), ATOMIC)
    assert not is_sigma_dispersive(build_by_tag("A5"), ATOMIC)
    assert not is_sigma_dispersive(build_by_tag("wreath_c2_s3"), ATOMIC)
    # one class swallows everything: trivially dispersive
    assert is_sigma_dispersive(build_by_tag("S4"), TWO_THREE)


def test_sigma_length_examples():
    s4 = build_by_tag("S4")
    assert sigma_length(s4, C2) == 2
    assert sigma_length(s4, C3) == 1
    assert sigma_length(s4, ATOMIC.classify(5)) == 0
    assert sigma_length(s4, TWO_THREE.classify(2)) == 1
    s3 = build_by_tag("S3")
    assert sigma_length(s3, C2) == 1
    assert sigma_length(s3, C3) == 1
    w = build_by_tag("wreath_c2_s3")
    assert sigma_length(w, C2) == 2
    assert sigma_length(w, C3) == 1
    dic3 = build_by_tag("dic3")
    assert sigma_length(dic3, C2) == 1
    assert sigma_length(dic3, C3) == 1


def _length_or_stall(route, g, cls):
    try:
        return route(g, cls)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("tag", ORACLE_TAGS)
def test_sigma_length_matches_quotient_route(tag):
    """The series read in G's normal lattice against the series built from
    quotient groups: the same length for every class, or the same stall."""
    g = build_by_tag(tag)
    stalls = 0
    for sigma in standard_partitions():
        for cls in sigma_of_group(g, sigma):
            got = _length_or_stall(sigma_length, g, cls)
            assert got == _length_or_stall(sigma_length_by_quotients, g, cls), (sigma, cls)
            stalls += isinstance(got, str)
    assert (stalls > 0) == (tag == "A5")


def test_sigma_length_needs_separability():
    with pytest.raises(DomainError):
        sigma_length(build_by_tag("A5"), C2)
    with pytest.raises(DomainError):
        sigma_length(build_by_tag("S6"), C2)


def test_solubility_f_class_and_length_read_one_walk_per_class():
    """A per-group sweep of a fresh S4 and wreath_c2_s3 (both soluble, so
    every class of every partition is walked) leaves one ("series", cls)
    entry per class in the group's cache and no per-reader entry; on A5 the
    cached stall raises DomainError on every sigma_length call."""
    for tag in ("S4", "wreath_c2_s3"):
        g = build_by_tag(tag)
        g = PermGroup(g.degree, g.generators)
        partitions = standard_partitions()
        assert all(r.verdict != "FAIL" for r in run_corpus_sweep([(tag, g)], partitions))
        kinds = {k[0] if isinstance(k, tuple) else k for k in g._cache}
        assert not {"soluble", "f_class", "sigma_length"} & kinds
        walked = {k[1] for k in g._cache if isinstance(k, tuple) and k[0] == "series"}
        assert walked == {cls for sigma in partitions for cls in sigma_of_group(g, sigma)}
    a5 = build_by_tag("A5")
    a5 = PermGroup(a5.degree, a5.generators)
    for _ in range(2):
        with pytest.raises(DomainError):
            sigma_length(a5, C2)
        assert ("series", C2) in a5._cache
    assert f_class_subgroup(a5, C2).order == 1


def test_pi_central_factor():
    s3 = build_by_tag("S3")
    c3 = subgroup(s3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    one = subgroup(s3, [])
    assert is_pi_central_factor(s3, c3, one, {2, 3})
    assert not is_pi_central_factor(s3, c3, one, {3})
    s4 = build_by_tag("S4")
    a4 = subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                       Permutation.from_cycles(4, [(0, 1), (2, 3)])])
    one4 = subgroup(s4, [])
    with pytest.raises(DomainError):
        is_pi_central_factor(s4, a4, one4, {2, 3})  # V4 lies between


def test_pi_normal_maximal_s3():
    s3 = build_by_tag("S3")
    for m in maximal_subgroups(s3):
        expected = m.order == 3
        assert is_pi_normal_maximal(s3, m, {3}) == expected
        assert is_pi_normal_maximal(s3, m, {2})  # order-3 core has 2-central top


@pytest.mark.parametrize("tag", ("S3", "S4", "A4", "D6", "dic3", "sl23",
                                 "c7_c3", "f20", "s3xc5", "C12"))
def test_class_nilpotent_iff_maximals_class_normal(tag):
    """Maximal-subgroup reading of class-local nilpotency."""
    g = build_by_tag(tag)
    for p in primes_of(g.order):
        cls = ATOMIC.classify(p)
        lhs = is_class_nilpotent(g, cls)
        rhs = all(is_pi_normal_maximal(g, m, {p}) for m in maximal_subgroups(g))
        assert lhs == rhs, (tag, p)


def test_closure_under_quotients_and_subgroups():
    """Class-nilpotency passes to subgroups and quotients (spot check; the
    acceptance suite sweeps the corpus)."""
    a4 = build_by_tag("A4")
    assert is_class_nilpotent(a4, C3)
    for s in all_subgroups(a4):
        assert is_class_nilpotent(s.group, C3)
    for n in normal_subgroups(a4):
        assert is_class_nilpotent(quotient(a4, n).image, C3)
