"""The element-table kernel against product-by-product oracles: the table
gathered from generator rows, Dimino closure over a known subgroup, the path
without a table, degenerate tables, pi-closure read in the parent's table,
and joins refuted from element orders against closing every join."""

import contextlib
import hashlib
import io
import random
from functools import reduce
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import sigmagraph.cli
import sigmagraph.group
from oracles import (ORACLE_TAGS, brute_subgroup_sets, composed_table,
                     cyclic_subgroup_sets, hall_classes_closing_every_join, index_closure,
                     is_pi_closed_by_normal_lattice, is_schmidt_by_lattice,
                     largest_normal_over_closing_every_join, naive_centralizer,
                     naive_centralizer_of_factor, naive_conjugacy_classes,
                     naive_normalizer, schmidt_pairs_every_generator, schmidt_subgroups,
                     subgroup_sets_every_extension, sylow_closing_every_join,
                     two_generated_sets_every_join, zoo_tags)
from sigmagraph.errors import CrossCheckError, ResourceLimitError
from sigmagraph.group import (DEFAULT_LIMITS, EngineLimits, PermGroup, Subgroup, _Universe,
                              _hall_classes, _largest_normal_over, _normal_subgroup_sets,
                              all_subgroups, centralizer, centralizer_of_factor,
                              hall_subgroups, is_normal, normal_subgroups, normalizer,
                              sylow, two_generated_subgroups)
from sigmagraph.perm import Permutation
from sigmagraph.predicates import (_pi_closed_indices, _schmidt_pairs, is_pi_closed,
                                   is_schmidt, schmidt_types)
from sigmagraph.sigma import ATOMIC, PiSet, prime_factors, primes_of, sigma_of_int
from sigmagraph.verify import run_corpus_sweep
from sigmagraph.zoo import (alternating, build_by_tag, corpus, direct_product, s5_subgroups,
                            standard_partitions, symmetric, zoo)


def table_elements(u):
    """The table's elements as checked permutations, in index order."""
    return [Permutation(tuple(im)) for im in u.images]


def assert_table_matches(G):
    u = G.universe()
    rows, inv = composed_table(G.elements())
    assert [list(u.rows[x]) for x in range(u.n)] == rows
    assert list(u.inv_arr) == inv


def assert_closure_matches(u, base_gens, gens, cap):
    """closure(gens, base=<base_gens>) is the plain walk's subgroup, and with
    a cap it is None exactly when that subgroup is larger than the cap."""
    perms = table_elements(u)
    base = u.closure(base_gens)
    assert base == index_closure(perms, base_gens)
    expected = index_closure(perms, list(base_gens) + list(gens))
    assert u.closure(gens, base=base) == expected
    assert u.closure(gens, base=base, cap=cap) == (expected if len(expected) <= cap else None)
    assert u.closure(gens, base=base, cap=len(expected)) == expected
    assert u.closure(gens, base=base, cap=len(expected) - 1) is None


@pytest.mark.parametrize("tag", zoo_tags())
def test_table_matches_composition_on_zoo(tag):
    assert_table_matches(build_by_tag(tag))


def test_table_matches_composition_on_s5_subgroups():
    for _, g in s5_subgroups():
        assert_table_matches(g)


@pytest.mark.parametrize("tag", ("S3", "Q8", "A4", "S4", "f20", "A5"))
def test_rows_and_inverses_match_composition_without_a_table(tag, monkeypatch):
    """Above the table limit a gather composes its entries from images as
    it reads them; whole rows read through it, and the inverses, must equal
    the product-by-product table."""
    monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    g = next(e for e in zoo() if e.tag == tag).builder()
    u = g.universe()
    assert not u.table
    perms = g.elements()
    rows, _ = composed_table(perms)
    whole = u.gather(range(u.n))
    assert [list(whole(u.rows[x])) for x in range(u.n)] == rows
    assert [perms[i] for i in u.inv_arr] == [p.inverse() for p in perms]


def assert_cyclic_walk_matches(u):
    """The orders walked over image tuples equal each permutation's own order,
    and the cyclic subgroups walked with them are those of the plain walk:
    canon[i] is the least generator of <i>, and ``cyclic`` lists the least
    generators of the nontrivial cyclic subgroups in increasing order, the
    fixed points of canon other than the identity."""
    perms = table_elements(u)
    assert list(u.orders) == [p.order() for p in perms]
    spans = [index_closure(perms, (i,)) for i in range(u.n)]
    least = [min(j for j in spans[i] if perms[j].order() == perms[i].order())
             for i in range(u.n)]
    assert u.canon == least
    assert type(u.cyclic) is list and all(type(g) is int for g in u.cyclic)
    assert u.cyclic == [i for i in range(u.n) if u.canon[i] == i != u.identity]
    assert list(cyclic_subgroup_sets(u)) == [spans[g] for g in sorted(set(least))]


def assert_inverses_cancel(u):
    """i·i⁻¹ is the identity for every element."""
    assert all(u.mul(i, u.inv_arr[i]) == u.identity for i in range(u.n))


@pytest.mark.parametrize("table", (True, False), ids=("table", "composed"))
@pytest.mark.parametrize("tag", zoo_tags())
def test_element_orders_from_the_rows_match_permutation_orders(tag, table, monkeypatch):
    """Orders, canon and the cyclic subgroups from the cyclic walk, with a
    table and, above the table limit, without one."""
    if not table:
        monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    u = next(e for e in zoo() if e.tag == tag).builder().universe()
    assert u.table == table
    assert_cyclic_walk_matches(u)


@pytest.mark.parametrize("table", (True, False), ids=("table", "composed"))
@pytest.mark.parametrize("tag", zoo_tags())
def test_inverses_cancel_on_every_zoo_group(tag, table, monkeypatch):
    """Inverses from the cyclic walk, checked on table rows and, above the
    table limit, on composed ones."""
    if not table:
        monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    u = next(e for e in zoo() if e.tag == tag).builder().universe()
    assert u.table == table
    assert_inverses_cancel(u)


@pytest.mark.parametrize("table", (True, False), ids=("table", "composed"))
@pytest.mark.parametrize("tag", ("S4", "A5", "S6", "wreath_c2_s3"))
def test_refutes_reads_element_orders_and_makes_no_row(tag, table, monkeypatch):
    """join((x, *at), target) refutes the join, returning None without a
    closure and without making a row, exactly when x or some x·a, composed
    as permutations, has an order that does not divide target, on drawn
    elements and on the p-elements of a Sylow subgroup, before and after
    x's row is read.  Each pass joins its other draws after the refuted
    ones, so that the first pass meets x's row unread; each gives the plain
    walk's subgroup when its order divides target, else None."""
    if not table:
        monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    g = build_by_tag(tag)
    u = g.universe()
    perms = table_elements(u)
    rng = random.Random(tag)
    sylows = [(sorted(sylow(g, p).indices), p ** e) for p, e in prime_factors(g.order)]
    divisors = [d for d in range(1, u.n + 1) if u.n % d == 0]
    closures, closure = [], _Universe.closure
    monkeypatch.setattr(_Universe, "closure",
                        lambda *args, **kwargs: closures.append(1) or closure(*args, **kwargs))
    for read_first in (False, True):
        others = []
        for _ in range(150):
            pool, target = (rng.choice(sylows) if rng.random() < 0.5
                            else (range(u.n), rng.choice(divisors)))
            x, at = rng.choice(pool), rng.sample(pool, min(len(pool), rng.randint(0, 4)))
            if read_first:
                u.rows[x]
            if target % perms[x].order() == 0 and not any(
                    target % (perms[x] * perms[a]).order() for a in at):
                others.append((x, at, target))
                continue
            held, closed = len(u.rows), len(closures)
            assert u.join((x, *at), target) is None
            assert (len(u.rows), len(closures)) == (held, closed)
        for x, at, target in others:
            s = index_closure(perms, [x, *at])
            assert u.join((x, *at), target) == (None if target % len(s) else s)


def test_table_rows_are_tuples_sharing_the_identity_rows_ints():
    """Each gathered row holds the identity row's int objects, so a table of
    n rows costs one pointer per entry and n ints in all."""
    g = symmetric(6)
    u, perms = g.universe(), g.elements()
    ident = u.rows[u.identity]
    assert ident == tuple(range(u.n))
    for row in (u.rows[x] for x in range(u.n)):
        assert type(row) is tuple
        assert all(x is ident[x] for x in row)
    assert [perms[i] for i in u.inv_arr] == [p.inverse() for p in perms]


def test_a_deep_row_is_gathered_without_recursion():
    """The cyclic group of order 1200 given by one g, a 16-cycle, a 3-cycle
    and a 25-cycle on 44 points: the rows of 1, g and g⁻¹ are held, and the
    row of g^600, read first on a fresh table, is gathered along a chain of
    600 powers of g."""
    g = Permutation.from_cycles(44, [list(range(16)), [16, 17, 18], list(range(19, 44))])
    u = PermGroup(44, [g], EngineLimits(max_element_order=1200)).universe()
    assert u.n == 1200 and len(u.rows) == 3
    far = Permutation(tuple((i + 8) % 16 for i in range(16)) + tuple(range(16, 44)))
    assert far == reduce(mul, [g] * 600)
    assert u.rows[u.idx_of(far)] == tuple(u.idx_of(far * p) for p in table_elements(u))


@pytest.mark.parametrize("table", (True, False), ids=("table", "composed"))
def test_elements_are_bytes_composed_by_translate(table, monkeypatch):
    """On every zoo group and S5 subgroup, with a table and without: the
    table holds each element as the bytes of its images, in the order of
    the sorted image tuples of ``elements()``, which stay tuple-backed
    Permutations; on a seeded sample, x's images read through a's table
    are x·a, and a gather along row x gives the indices of the x·a."""
    if not table:
        monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    rng = random.Random("bytes")
    groups = [build_by_tag(tag) for tag in zoo_tags()] + [g for _, g in s5_subgroups()]
    for G in groups:
        G = PermGroup(G.degree, G.generators)  # a fresh table under this test's limit
        u, perms = G.universe(), G.elements()
        assert u.table == (table or u.n == 1)
        assert all(type(im) is bytes and len(im) == G.degree for im in u.images)
        assert [tuple(im) for im in u.images] == sorted(p.images for p in perms)
        assert all(type(p) is Permutation and type(p.images) is tuple for p in perms)
        xs, at = rng.choices(range(u.n), k=8), rng.choices(range(u.n), k=8)
        for x in xs:
            products = [perms[x] * perms[a] for a in at]
            assert [u.images[x].translate(u.tables[a]) for a in at] == [
                bytes(p.images) for p in products]
            assert u.gather(at)(u.rows[x]) == tuple(map(u.idx_of, products))


def test_rows_read_in_random_order_match_composition():
    """Rows read in a seeded random order on fresh tables, each gathered
    down from whatever rows the earlier reads left, equal the table of
    permutation products and hold the identity row's int objects."""
    rng = random.Random("rows")
    groups = [build_by_tag(tag) for tag in zoo_tags()] + [g for _, g in s5_subgroups()]
    for G in groups:
        u = PermGroup(G.degree, G.generators).universe()
        table, _ = composed_table(G.elements())
        ident = u.rows[u.identity]
        for x in rng.sample(range(u.n), u.n):
            row = u.rows[x]
            assert list(row) == table[x]
            assert all(y is ident[y] for y in row)


def test_a_cold_s6_graph_call_gathers_at_most_half_its_rows(monkeypatch):
    """A cold hawkes graph of S6 gathers at most half of its 720 rows: the
    rows it reads and those on the way to them."""
    tables = []
    universe = PermGroup.universe

    def keep(G):
        tables.append(universe(G))
        return tables[-1]
    monkeypatch.setattr(PermGroup, "universe", keep)
    spec = '{"degree": 6, "generators": [[1, 2], [1, 2, 3, 4, 5, 6]], "expected_order": 720}'
    with contextlib.redirect_stdout(io.StringIO()):
        assert sigmagraph.cli.main(["graph", "--group", spec, "--kind", "hawkes"]) == 0
    u = tables[0]
    assert u.n == 720 and all(t is u for t in tables)
    assert len(u.rows) <= u.n // 2


@pytest.mark.parametrize("tag", ORACLE_TAGS + ("S5", "wreath_c2_s3"))
def test_closure_matches_walk_on_seeded_picks(tag):
    u = build_by_tag(tag).universe()
    rng = random.Random(tag)
    for _ in range(40):
        assert_closure_matches(u, rng.sample(range(u.n), rng.randint(0, 2)),
                               rng.sample(range(u.n), rng.randint(0, 3)),
                               rng.randint(1, u.n))


def subgroup_families(G):
    primes = primes_of(G.order)
    halls = [[s.indices for s in hall_subgroups(G, pi)]
             for r in (1, 2) for pi in combinations(primes, r)]
    return ([s.indices for s in normal_subgroups(G)],
            [s.indices for s in two_generated_subgroups(G)], halls)


@pytest.mark.parametrize("make", (lambda: symmetric(4), lambda: alternating(5)),
                         ids=("S4", "A5"))
def test_no_table_path_gives_the_same_subgroups(make, monkeypatch):
    with_table = subgroup_families(make())
    monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 10)
    g = make()
    assert not g.universe().table
    assert subgroup_families(g) == with_table


def elements_of(s) -> frozenset:
    return frozenset(s.elements())


def assert_table_reads_match_naive(G, subgroups):
    """Centraliser, normaliser and normality of each given subgroup, the
    centraliser of each factor of the normal ones among them, and the
    conjugacy classes, against whole-group scans that multiply permutations.  The generators derived
    from each subgroup's set are those of the plain walk: each is the least
    index outside the subgroup its predecessors generate, and all of them
    generate the set."""
    u, perms = G.universe(), G.elements()
    normals = []
    for s in subgroups:
        gens = u.derive_gens(s.indices)
        for k, g in enumerate(gens):
            assert g == min(s.indices - index_closure(perms, gens[:k]))
        assert index_closure(perms, gens) == s.indices
        assert elements_of(centralizer(G, s)) == naive_centralizer(G, s.elements())
        naive = naive_normalizer(G, s.elements())
        assert elements_of(normalizer(G, s)) == naive
        assert is_normal(G, s) == (len(naive) == G.order)
        if len(naive) == G.order:
            normals.append(s)
    for h in normals:
        for k in normals:
            if k.indices <= h.indices:
                assert (elements_of(centralizer_of_factor(G, h, k))
                        == naive_centralizer_of_factor(G, h.elements(), k.elements()))
    classes = u.conjugacy_classes()
    assert list(classes) == sorted(classes) and all(list(c) == sorted(c) for c in classes)
    assert {frozenset(perms[i] for i in c) for c in classes} == naive_conjugacy_classes(G)


@pytest.mark.parametrize("tag", ORACLE_TAGS)
def test_table_reads_match_naive(tag):
    g = build_by_tag(tag)
    assert_table_reads_match_naive(g, all_subgroups(g))


def test_table_reads_match_naive_on_every_subgroup_of_s5():
    g = symmetric(5)
    assert_table_reads_match_naive(g, all_subgroups(g))


@pytest.mark.parametrize("tag", ("S3", "Q8", "A4", "dic3", "S4", "f20", "A5", "wreath_c2_s3"))
def test_table_reads_without_a_table_match_naive(tag, monkeypatch):
    """The same reads with every entry composed from images: on the
    two-generated subgroups, and on wreath_c2_s3 (order 384, where the
    naive scans over those take a minute) on the Sylow subgroups and the
    cyclic ones generated by the identity and by each class's least member."""
    monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    g = fresh(tag)
    u = g.universe()
    assert not u.table
    if g.order > 120:
        heads = {(), *((u.canon[c[0]],) for c in u.conjugacy_classes()[1:])}
        subs = [Subgroup(g, s, gens) for s, gens in cyclic_subgroup_sets(u).items()
                if gens in heads]
        subs += [sylow(g, p) for p in primes_of(g.order)]
    else:
        subs = two_generated_subgroups(g)
    assert_table_reads_match_naive(g, subs)


@pytest.mark.parametrize("G", (PermGroup(1, ()), PermGroup(5, []),
                               PermGroup(1, [Permutation((0,))]),
                               PermGroup(3, [Permutation.identity(3)] * 2)),
                         ids=("degree1", "degree5", "degree1-gen", "identity-gens"))
def test_trivial_tables(G):
    u = G.universe()
    assert u.n == 1 and u.identity == 0
    assert [list(u.rows[x]) for x in range(u.n)] == [[0]] and list(u.inv_arr) == [0]
    one = frozenset({0})
    assert u.closure([]) == u.closure([0, 0]) == u.closure([0], base=one, cap=1) == one


def test_identity_and_repeated_generators():
    c = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    t = Permutation.from_cycles(4, [(0, 1)])
    g = PermGroup(4, [Permutation.identity(4), c, t, c, t])
    assert g.order == 24
    assert_table_matches(g)
    u = g.universe()
    i, j = u.idx_of(c), u.idx_of(t)
    assert u.closure([i, i, u.identity, j, j]) == frozenset(range(24))


def test_closure_over_a_one_element_base():
    s4 = symmetric(4)
    u, perms = s4.universe(), s4.elements()
    one = frozenset({u.identity})
    assert u.closure([], base=one) == one
    for g in range(u.n):
        assert u.closure([g], base=one) == u.closure([g]) == index_closure(perms, [g])


def test_generators_that_miss_elements_are_refused():
    images = tuple(bytes(p.images) for p in symmetric(4).elements())
    with pytest.raises(CrossCheckError):
        _Universe(images, [Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(CrossCheckError):
        _Universe(images, [])


@pytest.mark.parametrize("tag", ORACLE_TAGS + ("S5",))
def test_pi_closed_matches_normal_lattice(tag):
    """On the group and each of its two-generated subgroups, read in the
    group's table, for every set of its primes."""
    g = build_by_tag(tag)
    primes = primes_of(g.order)
    subs = two_generated_subgroups(g)
    for r in range(len(primes) + 1):
        for combo in combinations(primes, r):
            pi = PiSet(frozenset(ATOMIC.classify(p) for p in combo))
            assert is_pi_closed(g, pi) == is_pi_closed_by_normal_lattice(g, pi)
            for s in subs:
                assert (_pi_closed_indices(g, s.indices, pi)
                        == is_pi_closed_by_normal_lattice(s.group, pi))


def assert_refuted_joins_match_closing_every_join(G):
    """The routes that test a join from element orders before closing it
    give exactly what closing every join gives: ``sylow``'s set and
    generators for every prime; ``_largest_normal_over`` over every normal
    subgroup, for the primes in and outside each class of the three
    standard partitions; ``_hall_classes`` for every set of primes, classes
    and members in order; and the ``_schmidt_pairs`` subgroups in order."""
    primes = primes_of(G.order)
    for p in primes:
        s = sylow(G, p)
        assert (s.indices, s.gens) == sylow_closing_every_join(G, p), p
    prime_sets = {frozenset(p for p in primes if cls.contains(p) == inside)
                  for sigma in standard_partitions() for cls in sigma_of_int(G.order, sigma)
                  for inside in (True, False)}
    for floor in _normal_subgroup_sets(G):
        for pset in prime_sets:
            assert (_largest_normal_over(G, floor, pset)
                    == largest_normal_over_closing_every_join(G, floor, pset)), sorted(pset)
    for r in range(1, len(primes) + 1):
        for pset in combinations(primes, r):
            assert _hall_classes(G, pset) == hall_classes_closing_every_join(G, pset), pset
    assert ([(p, q, y, list(subgroups)) for p, q, y, subgroups in _schmidt_pairs(G)]
            == schmidt_pairs_every_generator(G, once=True))


JOIN_TAGS = ORACLE_TAGS + ("S6", "A6", "wreath_c2_s3")


@pytest.mark.parametrize("tag", JOIN_TAGS)
def test_refuted_joins_match_closing_every_join(tag):
    assert_refuted_joins_match_closing_every_join(build_by_tag(tag))


@pytest.mark.parametrize("tag", JOIN_TAGS)
def test_refuted_joins_match_closing_every_join_composed(tag, monkeypatch):
    """The same without a table: each join's products are composed from
    images."""
    monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    g = build_by_tag(tag)
    assert not g.universe().table
    assert_refuted_joins_match_closing_every_join(g)


def test_refuted_joins_match_closing_every_join_on_s5_subgroups():
    for _, g in s5_subgroups():
        assert_refuted_joins_match_closing_every_join(g)


@pytest.mark.parametrize("tag, capped, refused, rows", (
    ("S6", 37, 6, 322),
    ("A6", 43, 16, 198),
))
def test_cold_graph_calls_refute_joins_before_closing(tag, capped, refused, rows, monkeypatch):
    """Over six cold graph calls (hawkes and hall under the three standard
    partitions), the capped closures, those refused (over the cap, or of an
    order that does not divide it) and the rows the tables gather after
    they are made.  Closing every join took S6 375 capped closures, 344
    refused, and about 1850 rows, A6 258, 231 and about 770.  The rows
    follow the order in which a graph visits the partition's classes, a
    frozenset's hash order, by a row or so; the pin is their most."""
    tables, counts = [], [0, 0]
    init, closure = _Universe.__init__, _Universe.closure

    def made(u, *args):
        init(u, *args)
        tables.append((u, len(u.rows) if u.table else 0))

    def counted(u, gens, *, base=None, cap=None):
        out = closure(u, gens, base=base, cap=cap)
        if cap is not None:
            counts[0] += 1
            counts[1] += out is None or cap % len(out) != 0
        return out
    monkeypatch.setattr(_Universe, "__init__", made)
    monkeypatch.setattr(_Universe, "closure", counted)
    for kind in ("hawkes", "hall"):
        for sigma in ("atomic", '{"classes":[[2,3]]}', '{"classes":[[2,5],[3]]}'):
            with contextlib.redirect_stdout(io.StringIO()):
                assert sigmagraph.cli.main(["graph", "--group", f"zoo:{tag}",
                                            "--kind", kind, "--sigma", sigma]) == 0
    assert len(tables) == 6
    assert counts == [capped, refused]
    assert sum(len(u.rows) - held for u, held in tables) <= rows


def random_permutation(rng, degree):
    """A random permutation of a random set of points."""
    images = list(range(degree))
    points = rng.sample(range(degree), rng.randint(1, degree))
    for a, b in zip(points, rng.sample(points, len(points))):
        images[a] = b
    return Permutation(tuple(images))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_kernel_fuzz_on_small_degrees(seed):
    """One to three random generators on two to seven points.  Groups up to
    order 120 check the whole table, the Schmidt types and test against
    the walk and the lattice oracles, and the joins tested from element
    orders against closing every join; those up to order 24 also check the
    subgroup lattice against the brute-force one.  Every group checks the
    cyclic walk's orders, canon, cyclic subgroups and inverses, and closures
    over a drawn base; those above the table limit (A7) take the path
    without a table.  A draw whose walk passes the default cap (S7) is
    rejected."""
    rng = random.Random(seed)
    degree = rng.randint(2, 7)
    gens = [random_permutation(rng, degree) for _ in range(rng.randint(1, 3))]
    try:
        g = PermGroup(degree, gens)
    except ResourceLimitError:
        reject()
    u = g.universe()
    if g.order <= 24:
        assert {frozenset(s.elements()) for s in all_subgroups(g)} == brute_subgroup_sets(g)
    if g.order <= 120:
        assert_table_matches(g)
        assert schmidt_types(g) == {(p, q) for _, p, q in schmidt_subgroups(g)}
        assert is_schmidt(g) == is_schmidt_by_lattice(g)
        assert_refuted_joins_match_closing_every_join(g)
    assert_cyclic_walk_matches(u)
    assert_inverses_cancel(u)
    assert_closure_matches(u, rng.sample(range(u.n), min(u.n, rng.randint(0, 2))),
                           rng.sample(range(u.n), min(u.n, rng.randint(0, 3))),
                           rng.randint(1, u.n))


def fresh(tag, limits=DEFAULT_LIMITS):
    """A new group object for the tag under limits, with no cached table or
    lattice."""
    g = build_by_tag(tag)
    return PermGroup(g.degree, g.generators, limits)


def count_closures(monkeypatch) -> list[int]:
    """From here on, counts[0] is the number of ``_Universe.closure`` calls."""
    counts = [0]
    closure = _Universe.closure

    def counted(self, *args, **kwargs):
        counts[0] += 1
        return closure(self, *args, **kwargs)

    monkeypatch.setattr(_Universe, "closure", counted)
    return counts


def run_counted(counts, fn):
    """fn()'s result and the closures it ran."""
    counts[0] = 0
    return fn(), counts[0]


def pairs_of(subs):
    return [(s.indices, s.gens) for s in subs]


def test_a_sweep_computes_class_orbits_once_per_table(monkeypatch):
    """Every reader of a table's conjugacy classes gets the one tuple the
    table computed: over the standard sweep of fresh S4, SL(2,3) and
    wreath_c2_s3, each table returns a single classes object, and some
    table is read more than once."""
    reads = []
    classes = _Universe.conjugacy_classes

    def recorded(self):
        out = classes(self)
        reads.append((self, out))
        return out

    monkeypatch.setattr(_Universe, "conjugacy_classes", recorded)
    groups = [(tag, fresh(tag)) for tag in ("S4", "sl23", "wreath_c2_s3")]
    reports = list(run_corpus_sweep(groups, standard_partitions()))
    assert reports and all(r.verdict != "FAIL" for r in reports)
    per_table: dict[int, set[int]] = {}
    for u, out in reads:
        per_table.setdefault(id(u), set()).add(id(out))
    assert {id(g.universe()) for _, g in groups} <= set(per_table)
    assert all(len(outs) == 1 for outs in per_table.values())
    assert len(reads) > len(per_table)


@pytest.mark.parametrize("tag", ORACLE_TAGS + ("S5",))
def test_orbit_pruned_searches_match_every_join(tag):
    """Closing one extension per normaliser orbit gives the same subgroups
    with the same generators, in the same order, as closing every one."""
    g = build_by_tag(tag)
    assert pairs_of(all_subgroups(g)) == subgroup_sets_every_extension(g)
    assert pairs_of(two_generated_subgroups(g)) == two_generated_sets_every_join(g)


def test_orbit_pruned_searches_match_every_join_on_s5_subgroups():
    for _, g in s5_subgroups():
        assert pairs_of(all_subgroups(g)) == subgroup_sets_every_extension(g)
        assert pairs_of(two_generated_subgroups(g)) == two_generated_sets_every_join(g)


@pytest.mark.parametrize("tag, limits", (
    ("A6", DEFAULT_LIMITS),
    ("S6", EngineLimits(max_subgroup_order=720)),
    ("wreath_c2_s3", EngineLimits(max_subgroup_count=5000)),
), ids=("A6", "S6", "wreath_c2_s3"))
def test_orbit_pruned_searches_match_and_close_less(tag, limits, monkeypatch):
    """The same lattice and pool as closing every join, from strictly fewer
    closures."""
    counts = count_closures(monkeypatch)
    routes = ((all_subgroups, subgroup_sets_every_extension),
              (two_generated_subgroups, two_generated_sets_every_join))
    for library, oracle in routes:
        got, pruned = run_counted(counts, lambda: pairs_of(library(fresh(tag, limits))))
        want, every = run_counted(counts, lambda: oracle(fresh(tag, limits)))
        assert got == want
        assert pruned < every


def test_orbit_pruned_lattice_stops_at_the_same_cap(monkeypatch):
    """Both routes stop at the count cap on the order-384 wreath group, the
    library after at most half the closures of closing every extension.
    Under the default cap (4000) its layer count (4531 subgroups over E =
    C2^6) passes the cap, so it stops before any search, after no more than
    1000 closures, the walk of E's invariant subgroups included.  At 4600,
    between the layer count and the lattice's 4676, the count does not
    decide and the search stops at the cap, after no more than 13,000
    closures, the count's included."""
    counts = count_closures(monkeypatch)
    for cap, most in ((DEFAULT_LIMITS.max_subgroup_count, 1000), (4600, 13_000)):
        caps, closures = [], []
        for route in (all_subgroups, subgroup_sets_every_extension):
            counts[0] = 0
            with pytest.raises(ResourceLimitError) as exc:
                route(fresh("wreath_c2_s3", EngineLimits(max_subgroup_count=cap)))
            caps.append((exc.value.cap_name, exc.value.cap_value))
            closures.append(counts[0])
        assert caps == [("max_subgroup_count", cap)] * 2
        assert 2 * closures[0] <= closures[1]
        assert closures[0] <= most


@pytest.mark.parametrize("route", (all_subgroups, two_generated_subgroups))
def test_skipped_joins_count_toward_the_join_work_cap(route, monkeypatch):
    """A skipped pair still counts: with max_join_work = 300 the cap fires
    after fewer than 300 closures, joins and generator derivations
    together.  On the lattice route the layer count spends that work, each
    element of E taken up for a join counting, skipped or joined."""
    counts = count_closures(monkeypatch)
    with pytest.raises(ResourceLimitError) as exc:
        route(fresh("wreath_c2_s3", EngineLimits(max_join_work=300)))
    assert (exc.value.cap_name, exc.value.cap_value) == ("max_join_work", 300)
    assert counts[0] < 300


def assert_gathers_match_entries(G):
    """gather(at) on every row, for whole rows, the inverses and a few
    fixed position sets, and for the column of each generator (at = (g,));
    mul at every entry; conjugation_rows(by) and conjugates(g, at) at the
    fixed position sets, for by = G's generators and by = generators of the
    normaliser of a Sylow 2-subgroup; and conj_rows, built with the table:
    all against the table of permutation products (``composed_table``)."""
    u = G.universe()
    table, inv = composed_table(G.elements())
    n = u.n
    assert list(u.inv_arr) == inv
    fixed = (tuple(range(n)), inv, (u.identity,), (n - 1, 0, n // 2), tuple(range(0, n, 7)))
    for at in fixed:
        gather = u.gather(at)
        assert [list(gather(u.rows[x])) for x in range(n)] == [[t[a] for a in at] for t in table]
    assert [[u.mul(x, y) for y in range(n)] for x in range(n)] == table
    normaliser = normalizer(G, sylow(G, 2))
    for by in (u.gens, u.derive_gens(normaliser.indices)):
        for g in by:
            column = u.gather((g,))
            assert [column(u.rows[x]) for x in range(n)] == [(t[g],) for t in table]
        want = [[table[table[inv[g]][i]][g] for i in range(n)] for g in by]
        assert [list(row) for row in u.conjugation_rows(by)] == want
        for g, row in zip(by, want):
            for at in fixed:
                assert list(u.conjugates(g, at)) == [row[a] for a in at]
    assert u.conj_rows == u.conjugation_rows(u.gens)


@pytest.mark.parametrize("tag", ("S4", "A5", "wreath_c2_s3"))
def test_column_and_conjugation_gathers_match_entries(tag):
    assert_gathers_match_entries(fresh(tag))


@pytest.mark.parametrize("tag", ("S4", "A5", "wreath_c2_s3"))
def test_column_and_conjugation_gathers_match_entries_without_a_table(tag, monkeypatch):
    monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 1)
    g = fresh(tag)
    assert not g.universe().table
    assert_gathers_match_entries(g)


def test_bulk_reads_above_the_table_limit_make_no_pointwise_call(monkeypatch):
    """On S5 x S4 (order 2880, no table), closure, the conjugation rows,
    conjugates at the Sylow 2-subgroup, centralizer and normalizer of it
    read only through gathers: not one ``_Universe.mul`` call, which would
    be a Python call per entry."""
    g = direct_product(symmetric(5), symmetric(4))
    u = g.universe()
    assert not u.table
    p2 = sylow(g, 2)
    calls = [0]
    mul = _Universe.mul

    def counted(self, i, j):
        calls[0] += 1
        return mul(self, i, j)

    monkeypatch.setattr(_Universe, "mul", counted)
    assert u.closure(p2.gens) == p2.indices
    assert u.conjugation_rows(u.gens) == u.conj_rows
    assert set(u.conjugates(u.gens[0], tuple(p2.indices))) < set(range(u.n))
    c, n = centralizer(g, p2), normalizer(g, p2)
    assert c.indices <= n.indices and p2.indices <= n.indices
    assert calls == [0]
    u.mul(u.identity, u.identity)
    assert calls == [1]


CORPUS_SHA256 = "9cd15ee164c956ad4460ae6f38b662b05eef38c116dfac053f64fe647f08f12b"


def test_corpus_stream_without_tables_keeps_the_pinned_bytes(monkeypatch):
    """``verify --corpus`` on fresh groups with ``_TABLE_LIMIT`` at 0, so
    that every group reads its products through composed gathers, prints
    the bytes that the CI pins for the path with tables."""
    monkeypatch.setattr(sigmagraph.group, "_TABLE_LIMIT", 0)
    groups = [(tag, PermGroup(g.degree, g.generators)) for tag, g in corpus()]
    monkeypatch.setattr(sigmagraph.cli, "corpus", lambda: groups)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert sigmagraph.cli.main(["verify", "--corpus"]) == 0
    assert not any(g.universe().table for _, g in groups)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CORPUS_SHA256
