import gc

import pytest

from oracles import zoo_tags
from sigmagraph.errors import GroupInputError
from sigmagraph.group import PermGroup
from sigmagraph.zoo import (alternating, build_by_tag, corpus, cyclic, dicyclic12, dihedral,
                            direct_product, regular_wreath, s5_subgroups,
                            standard_partitions, symmetric, zoo)


def test_every_entry_builds_to_expected_order():
    entries = zoo()
    assert len(entries) == 27
    for entry in entries:
        assert entry.build().order == entry.expected_order, entry.tag


def test_tags_unique():
    tags = zoo_tags()
    assert len(set(tags)) == len(tags)
    assert "S4" in tags and "wreath_c2_s3" in tags and "dic3" in tags


def test_build_by_tag_fresh_and_validated():
    a, b = build_by_tag("S4"), build_by_tag("S4")
    assert a is not b and a.generators == b.generators
    with pytest.raises(GroupInputError):
        build_by_tag("nope")


def test_s5_subgroups():
    subs = s5_subgroups()
    assert len(subs) == 156
    assert subs[0][0] == "S5_sub_000" and subs[0][1].order == 1
    assert subs[-1][0] == "S5_sub_155" and subs[-1][1].order == 120
    orders = [g.order for _, g in subs]
    assert orders == sorted(orders)
    assert all(120 % o == 0 for o in orders)


def test_corpus_excludes_trivial():
    groups = corpus()
    assert len(groups) == len(zoo()) + 155
    assert all(g.order > 1 for _, g in groups)
    assert [t for t, _ in groups] == [t for t, _ in corpus()]


@pytest.mark.parametrize("make", (lambda: [build_by_tag("S4")],
                                  lambda: [g for _, g in corpus()]),
                         ids=("build_by_tag", "corpus"))
def test_zoo_group_is_freed_once_its_caller_drops_it(make):
    """The zoo keeps no group it builds, and a group holds no cycle, so a
    group whose caller drops it is freed at once, with the cycle collector
    off, even after its element table is built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        groups = make()
        for g in groups:
            g.universe()
        built = {id(g) for g in groups}
        del groups, g
        assert not any(id(o) in built for o in gc.get_objects() if isinstance(o, PermGroup))
    finally:
        if enabled:
            gc.enable()


def test_standard_partitions():
    parts = standard_partitions()
    assert len(parts) == 3
    assert parts[0].atomic
    assert parts[1].to_json() == {"classes": [[2, 3]], "atomic": False}
    assert parts[2].to_json() == {"classes": [[2, 5], [3]], "atomic": False}


def test_specific_constructions():
    assert dihedral(6).order == 12
    assert direct_product(symmetric(3), symmetric(3)).order == 36
    assert regular_wreath(3, symmetric(3)).order == 3**6 * 6
    dic = dicyclic12()
    assert dic.order == 12
    assert sorted(p.order() for p in dic.elements()).count(2) == 1  # lone involution
    q8 = build_by_tag("Q8")
    assert sorted(p.order() for p in q8.elements()) == [1, 2, 4, 4, 4, 4, 4, 4]
    sl = build_by_tag("sl23")
    assert sorted(p.order() for p in sl.elements()).count(2) == 1


def regular_wreath_over_s3(p):
    return regular_wreath(p, symmetric(3))


@pytest.mark.parametrize("build, n", [
    (cyclic, 0), (cyclic, 2.0), (cyclic, True),
    (symmetric, 0), (symmetric, True), (symmetric, 3.0), (symmetric, "3"),
    (alternating, -3), (alternating, 0), (alternating, 4.0),
    (dihedral, 1), (dihedral, 2), (dihedral, 2.0), (dihedral, True), (dihedral, None),
    (regular_wreath_over_s3, True), (regular_wreath_over_s3, 2.0),
    (regular_wreath_over_s3, 1), (regular_wreath_over_s3, 0),
])
def test_builders_refuse_an_n_outside_their_range(build, n):
    """cyclic, symmetric and alternating take an int n >= 1, dihedral an int
    n >= 3 and regular_wreath an int p >= 2: a bool, a float or a smaller n
    is refused, not coerced into a smaller or wrong group (dihedral(2) once
    had order 2, symmetric(True) was trivial, regular_wreath(True, S3) was
    S3)."""
    name = "p" if build is regular_wreath_over_s3 else "n"
    with pytest.raises(GroupInputError, match=f"^{name} must be an int of at least"):
        build(n)


def test_builders_at_the_least_n():
    assert [cyclic(1).order, symmetric(1).order, alternating(1).order,
            alternating(2).order, alternating(3).order, dihedral(3).order] == [1, 1, 1, 1, 3, 6]
