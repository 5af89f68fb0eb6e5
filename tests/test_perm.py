import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigmagraph.bsgs import Bsgs
from sigmagraph.errors import GroupInputError, ResourceLimitError
from sigmagraph.group import EngineLimits, PermGroup
from sigmagraph.perm import Permutation
from sigmagraph.zoo import s5_subgroups, symmetric, zoo

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n))).map(lambda xs: Permutation(tuple(xs)))


def test_from_cycles_zero_based():
    p = Permutation.from_cycles(4, [(0, 1, 2)])
    assert p.images == (1, 2, 0, 3)


def test_from_cycles_one_based():
    p = Permutation.from_cycles(4, [[1, 2], [3, 4]], one_based=True)
    assert p.images == (1, 0, 3, 2)


def test_from_cycles_rejects_out_of_range():
    with pytest.raises(GroupInputError):
        Permutation.from_cycles(3, [(0, 3)])


@pytest.mark.parametrize("point", [1.0, True, "1", None])
def test_from_cycles_rejects_a_point_that_is_not_an_int(point):
    with pytest.raises(GroupInputError):
        Permutation.from_cycles(3, [(point, 2)])


@pytest.mark.parametrize("degree", (True, 2.0, "3", None), ids=("bool", "float", "str", "None"))
def test_identity_and_from_cycles_refuse_a_degree_that_is_not_an_int(degree):
    """A bool is not read as 1, and a float, a string or None is refused
    with the input error, not a bare TypeError from range."""
    with pytest.raises(GroupInputError, match="degree"):
        Permutation.from_cycles(degree, [])
    with pytest.raises(GroupInputError, match="degree"):
        Permutation.identity(degree)


def test_from_cycles_rejects_overlap():
    with pytest.raises(GroupInputError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])


def test_mul_applies_left_factor_first():
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_mul_degree_mismatch():
    with pytest.raises(GroupInputError):
        Permutation((1, 0)) * Permutation((1, 0, 2))


def test_order_and_cycles():
    p = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert p.order() == 6
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    assert str(p) == "(0 1)(2 3 4)"
    assert str(Permutation((0, 1, 2))) == "()"


@given(perms)
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity
    assert (p.inverse() * p).is_identity


@given(perms)
def test_is_identity_iff_no_cycles(p):
    assert p.is_identity == (p.cycles() == [])
    assert Permutation.identity(p.degree).is_identity


@given(perms)
def test_order_is_exponent(p):
    q = p
    for _ in range(p.order() - 1):
        q = q * p
    assert q.is_identity


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(*(st.permutations(range(n)),) * 3)))
def test_associativity(triple):
    a, b, c = (Permutation(tuple(x)) for x in triple)
    assert (a * b) * c == a * (b * c)


def validated(images):
    """The same permutation, built through the bijection check."""
    return Permutation(tuple(images))


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_trusted_products_and_inverses_equal_validated_ones(pair):
    """Products and inverses skip the bijection check; they are still equal,
    and hash equal, to the permutation built with the check."""
    a, b = (validated(x) for x in pair)
    for made, images in ((a * b, [b.images[x] for x in a.images]),
                         (a.inverse(), [a.images.index(i) for i in range(a.degree)])):
        expected = validated(images)
        assert made == expected and hash(made) == hash(expected)
        assert type(made) is Permutation and made.images == expected.images


def test_images_that_are_not_a_bijection_are_refused():
    """Also images that are not a tuple of ints: floats and bools are not
    coerced, and a list (which cannot be hashed) is refused."""
    for images in ((0, 0, 1), (1, 2, 3), (), (1.0, 0.0), (True, False), [1, 0]):
        with pytest.raises(GroupInputError):
            Permutation(images)


def validated_closure(G):
    """Image tuples of G's elements, every product built with the bijection
    check."""
    ident = validated(range(G.degree))
    seen = {ident.images}
    frontier = [ident]
    for x in frontier:
        for g in G.generators:
            y = validated(g.images[i] for i in x.images)
            if y.images not in seen:
                seen.add(y.images)
                frontier.append(y)
    return seen


def test_walk_of_every_corpus_group_matches_bsgs_and_validated_closure():
    """The order and the sorted element list that the Cayley-graph walk
    gives every zoo group and every subgroup of S5 agree with the strong
    generating set's order and with a closure that builds every product
    with the bijection check."""
    groups = [(e.tag, e.build(), e.expected_order) for e in zoo()]
    groups += [(tag, g, g.order) for tag, g in s5_subgroups()]
    for tag, G, expected in groups:
        seen = validated_closure(G)
        assert Bsgs(G.degree, G.generators).order == G.order == len(seen) == expected, tag
        assert [p.images for p in G.elements()] == sorted(seen), tag
        fresh = PermGroup(G.degree, G.generators)
        assert fresh.order == expected and fresh.elements() == G.elements(), tag


def test_walk_past_the_default_cap_takes_the_order_from_bsgs():
    """Past the default max_element_order the walk stops and raises the cap;
    under a raised element cap it gives S7, whose order the strong
    generating set confirms and whose elements are those of a closure with
    the bijection check.  The group keeps the caps it was built with."""
    gens = (Permutation.from_cycles(7, [tuple(range(7))]), Permutation.from_cycles(7, [(0, 1)]))
    with pytest.raises(ResourceLimitError, match=r"\[cap max_element_order=5000\]"):
        PermGroup(7, gens)
    limits = EngineLimits(max_element_order=5040)
    g = PermGroup(7, gens, limits)
    assert g.order == Bsgs(7, gens).order == 5040 and g.limits is limits
    elems = g.elements()
    assert len(set(elems)) == 5040
    assert [p.images for p in elems] == sorted(validated_closure(g))
    with pytest.raises(ResourceLimitError, match=r"\[cap max_element_order=5039\]"):
        PermGroup(7, gens, EngineLimits(max_element_order=5039))


def test_a_group_far_past_the_cap_is_refused_at_once():
    """S12 (order 479001600) costs a walk to one element past the default
    cap, not an enumeration."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"\[cap max_element_order=5000\]"):
        symmetric(12)
    assert time.perf_counter() - start < 0.5
