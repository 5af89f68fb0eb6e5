import pytest

from oracles import zoo_tags
from sigmagraph.errors import GroupInputError
from sigmagraph.zoo import (build_by_tag, corpus, dicyclic12, dihedral,
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


def test_build_by_tag_cached_and_validated():
    assert build_by_tag("S4") is build_by_tag("S4")
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
    again = corpus()
    assert [t for t, _ in groups] == [t for t, _ in again]
    assert all(a is b for (_, a), (_, b) in zip(groups, again))


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
