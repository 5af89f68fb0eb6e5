"""Permutations of {0, ..., degree-1} stored as immutable image tuples.

Composition convention: (p * q) applies p first, then q.

A permutation built from outside input (``Permutation(images)``,
``from_cycles``, ``identity``) is checked to be a bijection given by ints,
of a degree given by an int: nothing is coerced, and a bool or a float is
refused.  Products and inverses of checked permutations are bijections
already, so they skip that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import GroupInputError


@dataclass(frozen=True, slots=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        images = self.images
        if not isinstance(images, tuple) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in images):
            raise GroupInputError(f"images {images!r} are not a tuple of integers")
        n = len(images)
        if n == 0:
            raise GroupInputError("permutation degree must be at least 1")
        if sorted(images) != list(range(n)):
            raise GroupInputError(f"images {images!r} are not a bijection of 0..{n - 1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation.from_cycles(degree, ())

    @staticmethod
    def from_cycles(degree: int, cycles, one_based: bool = False) -> "Permutation":
        """Build a permutation from disjoint cycles given as point sequences.
        The degree and every point must be ints (a bool is refused): no value
        is coerced."""
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise GroupInputError(f"degree {degree!r} is not an integer")
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise GroupInputError(f"cycle point {x!r} is not an integer")
            pts = [x - 1 if one_based else x for x in cycle]
            for x in pts:
                if not 0 <= x < degree:
                    raise GroupInputError(f"cycle point {x + 1 if one_based else x} out of range for degree {degree}")
                if x in seen:
                    raise GroupInputError(f"cycles are not disjoint at point {x + 1 if one_based else x}")
                seen.add(x)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return Permutation(tuple(images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        o = other.images
        if len(o) != len(self.images):
            raise GroupInputError("cannot compose permutations of different degrees")
        return _trusted(tuple(map(o.__getitem__, self.images)))

    def inverse(self) -> "Permutation":
        images = self.images
        return _trusted(tuple(sorted(range(len(images)), key=images.__getitem__)))

    @property
    def is_identity(self) -> bool:
        images = self.images
        return images == tuple(range(len(images)))

    def order(self) -> int:
        cycs = self.cycles()
        return lcm(*(len(c) for c in cycs)) if cycs else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimum, sorted by start."""
        out = []
        seen: set[int] = set()
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


_set_images = Permutation.images.__set__


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation on images already known to be a bijection, built
    without __post_init__'s check."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p
