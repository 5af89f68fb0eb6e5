"""Built-in corpus: named small groups plus every subgroup of S5.

Each entry is an explicit generator table with its expected order asserted at
build time; nothing is pulled from an external database.  Built groups are
cached per tag so repeated lookups share subgroup lattices and other
per-instance caches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .errors import CrossCheckError, GroupInputError
from .group import DEFAULT_LIMITS, PermGroup, all_subgroups
from .perm import Permutation
from .sigma import SigmaPartition


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [Permutation.from_cycles(n, [tuple(range(n))])])


def dihedral(n: int) -> PermGroup:
    """Symmetries of the n-gon, order 2n (n >= 3)."""
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    flip = Permutation(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, [rot, flip])


def symmetric(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, ())
    return PermGroup(n, [Permutation.from_cycles(n, [tuple(range(n))]),
                         Permutation.from_cycles(n, [(0, 1)])])


def alternating(n: int) -> PermGroup:
    if n <= 2:
        return PermGroup(max(n, 1), ())
    cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
    return PermGroup(n, [Permutation.from_cycles(n, [(0, 1, 2)]),
                         Permutation.from_cycles(n, [cyc])])


def klein_four() -> PermGroup:
    return PermGroup(4, [Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                         Permutation.from_cycles(4, [(0, 2), (1, 3)])])


def quaternion8() -> PermGroup:
    """Q8 in its regular representation on the elements 1,-1,i,-i,j,-j,k,-k."""
    # right multiplication by i and by j on the order above
    by_i = Permutation((2, 3, 1, 0, 7, 6, 4, 5))
    by_j = Permutation((4, 5, 6, 7, 1, 0, 3, 2))
    return PermGroup(8, [by_i, by_j])


def sl2_3() -> PermGroup:
    """SL(2,3) acting on the eight nonzero vectors of F_3^2."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def action(matrix):
        images = []
        for a, b in vectors:
            image = ((matrix[0][0] * a + matrix[0][1] * b) % 3,
                     (matrix[1][0] * a + matrix[1][1] * b) % 3)
            images.append(index[image])
        return Permutation(tuple(images))

    return PermGroup(8, [action(((1, 1), (0, 1))), action(((0, 2), (1, 0)))])


def direct_product(g1: PermGroup, g2: PermGroup) -> PermGroup:
    """Action on the disjoint union of the two point sets."""
    d1, d2 = g1.degree, g2.degree
    gens = [Permutation(p.images + tuple(range(d1, d1 + d2))) for p in g1.generators]
    gens += [Permutation(tuple(range(d1)) + tuple(d1 + x for x in p.images))
             for p in g2.generators]
    return PermGroup(d1 + d2, gens)


def regular_wreath(p: int, top: PermGroup) -> PermGroup:
    """C_p wreath top, with top acting regularly: degree p * |top|.

    Point p*b + r is slot r of block b; one bottom p-cycle plus the lifted
    top generators generate the whole base by transitivity on blocks.
    """
    elems = top.elements()  # sorted by image tuple
    pos = {q.images: k for k, q in enumerate(elems)}
    lifted = []
    for g in top.generators:
        block_map = [pos[(e * g).images] for e in elems]
        lifted.append(Permutation(tuple(p * block_map[k // p] + (k % p)
                                        for k in range(p * len(elems)))))
    bottom = Permutation.from_cycles(p * len(elems), [tuple(range(p))])
    return PermGroup(p * len(elems), [bottom] + lifted)


def dicyclic12() -> PermGroup:
    """C3 . C4 with the C4 inverting C3, in its regular representation.

    Point i < 6 is a^i, point 6 + k is x a^k, where a has order 6 (a^3 = x^2
    is the unique involution) and x a x^-1 = a^-1.  The minimal faithful
    degree is 12: the only core-free point stabilizer is trivial.
    """
    a = Permutation.from_cycles(12, [tuple(range(6)), tuple(range(6, 12))])
    x = Permutation(tuple([6 + (-i) % 6 for i in range(6)]
                          + [(3 - k) % 6 for k in range(6)]))
    return PermGroup(12, [a, x])


def frobenius20() -> PermGroup:
    add = Permutation(tuple((x + 1) % 5 for x in range(5)))
    mul = Permutation(tuple((2 * x) % 5 for x in range(5)))
    return PermGroup(5, [add, mul])


def c7_c3() -> PermGroup:
    """The nonabelian group of order 21: 2 has multiplicative order 3 mod 7."""
    add = Permutation(tuple((x + 1) % 7 for x in range(7)))
    mul = Permutation(tuple((2 * x) % 7 for x in range(7)))
    return PermGroup(7, [add, mul])


@dataclass(frozen=True)
class ZooEntry:
    tag: str
    expected_order: int
    builder: Callable[[], PermGroup]

    def build(self) -> PermGroup:
        if self.tag not in _BUILT:
            g = self.builder()
            if g.order != self.expected_order:
                raise CrossCheckError(
                    f"zoo entry {self.tag}: built order {g.order}, expected {self.expected_order}")
            _BUILT[self.tag] = g
        return _BUILT[self.tag]


_BUILT: dict[str, PermGroup] = {}


def zoo() -> tuple[ZooEntry, ...]:
    return (
        ZooEntry("C2", 2, lambda: cyclic(2)),
        ZooEntry("C3", 3, lambda: cyclic(3)),
        ZooEntry("C4", 4, lambda: cyclic(4)),
        ZooEntry("C5", 5, lambda: cyclic(5)),
        ZooEntry("C6", 6, lambda: cyclic(6)),
        ZooEntry("C8", 8, lambda: cyclic(8)),
        ZooEntry("C9", 9, lambda: cyclic(9)),
        ZooEntry("C12", 12, lambda: cyclic(12)),
        ZooEntry("C30", 30, lambda: cyclic(30)),
        ZooEntry("V4", 4, klein_four),
        ZooEntry("D4", 8, lambda: dihedral(4)),
        ZooEntry("D5", 10, lambda: dihedral(5)),
        ZooEntry("D6", 12, lambda: dihedral(6)),
        ZooEntry("Q8", 8, quaternion8),
        ZooEntry("S3", 6, lambda: symmetric(3)),
        ZooEntry("S4", 24, lambda: symmetric(4)),
        ZooEntry("S5", 120, lambda: symmetric(5)),
        ZooEntry("S6", 720, lambda: symmetric(6)),
        ZooEntry("A4", 12, lambda: alternating(4)),
        ZooEntry("A5", 60, lambda: alternating(5)),
        ZooEntry("A6", 360, lambda: alternating(6)),
        ZooEntry("sl23", 24, sl2_3),
        ZooEntry("dic3", 12, dicyclic12),
        ZooEntry("c7_c3", 21, c7_c3),
        ZooEntry("f20", 20, frobenius20),
        ZooEntry("s3xc5", 30, lambda: direct_product(symmetric(3), cyclic(5))),
        ZooEntry("wreath_c2_s3", 384, lambda: regular_wreath(2, symmetric(3))),
    )


def build_by_tag(tag: str) -> PermGroup:
    for entry in zoo():
        if entry.tag == tag:
            return entry.build()
    raise GroupInputError(f"unknown zoo tag {tag!r}")


@functools.cache
def s5_subgroups() -> tuple[tuple[str, PermGroup], ...]:
    """All 156 subgroups of S5 in canonical order, tagged S5_sub_###."""
    subs = all_subgroups(symmetric(5), DEFAULT_LIMITS)
    return tuple((f"S5_sub_{k:03d}", s.group) for k, s in enumerate(subs))


def corpus() -> tuple[tuple[str, PermGroup], ...]:
    """Graph-ready corpus: named entries, then every nontrivial subgroup of
    S5.  The trivial subgroup is left out; graphs require a nontrivial group."""
    named = tuple((e.tag, e.build()) for e in zoo())
    return named + tuple((t, g) for t, g in s5_subgroups() if g.order > 1)


def standard_partitions() -> tuple[SigmaPartition, ...]:
    """The partitions the corpus sweeps run under: the finest one, one merged
    even-odd pair, and a two-class split with separated 3.  New objects on
    every call, like ``parse_sigma_spec``'s."""
    return (
        SigmaPartition(atomic=True),
        SigmaPartition(explicit_classes=(frozenset({2, 3}),)),
        SigmaPartition(explicit_classes=(frozenset({2, 5}), frozenset({3}))),
    )
