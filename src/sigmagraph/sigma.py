"""Partitions of the primes into classes, and class arithmetic on integers.

A partition is given by finitely many explicit prime classes plus an implicit
residual class holding every other prime, or by the atomic partition in which
each prime is its own class.  Classes are value objects tied to their
partition, so classes from different partitions never compare equal.  Each
partition object keeps the class of every prime it has classified, so a
repeated ``classify(p)`` returns the same object, and the class set of every
integer ``sigma_of_int`` was asked for.  Partitions, classes and class sets
compute their hash once, at construction, and a class its tag and sort key
too; none of these caches enters equality or the hash.  An integer above
``_MAX_PRIME`` is refused (cap ``max_prime``) before it is factored, since
trial division of a large prime would not finish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError, GroupInputError, ResourceLimitError

# bound on an integer tested for primality: a partition spec's class member
# or a prime given to classify
_MAX_PRIME = 10**6


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1 in increasing prime order."""
    if n < 1:
        raise DomainError(f"cannot factor {n}; need a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def primes_of(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in prime_factors(n))


def _is_prime(p: int) -> bool:
    if p > _MAX_PRIME:
        raise ResourceLimitError(f"{p} is too large to test for primality",
                                 cap_name="max_prime", cap_value=_MAX_PRIME)
    return p >= 2 and primes_of(p) == (p,)


@dataclass(frozen=True)
class SigmaPartition:
    explicit_classes: tuple[frozenset[int], ...] = ()
    atomic: bool = False
    # prime -> its class, filled by classify; n -> sigma_of_int(n, self); and
    # the hash: none of them is part of equality or hash
    _classes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _of_int: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.atomic and self.explicit_classes:
            raise GroupInputError("atomic partition cannot carry explicit classes")
        seen: set[int] = set()
        for cls in self.explicit_classes:
            if not cls:
                raise GroupInputError("explicit classes must be nonempty")
            for p in cls:
                if not _is_prime(p):
                    raise GroupInputError(f"{p} is not a prime")
                if p in seen:
                    raise GroupInputError(f"prime {p} appears in two classes")
                seen.add(p)
        object.__setattr__(self, "_hash", hash((self.explicit_classes, self.atomic)))

    def __hash__(self) -> int:
        return self._hash

    def classify(self, p: int) -> "SigmaClass":
        found = self._classes.get(p)
        if found is None:
            found = self._classes[p] = self._new_class(p)
        return found

    def _new_class(self, p: int) -> "SigmaClass":
        if not _is_prime(p):
            raise DomainError(f"{p} is not a prime")
        if self.atomic:
            return SigmaClass(self, "atomic", prime=p)
        for i, cls in enumerate(self.explicit_classes):
            if p in cls:
                return SigmaClass(self, "explicit", index=i)
        return SigmaClass(self, "residual")

    def to_json(self) -> dict:
        """Keys in sorted order, as the reports that embed it are encoded."""
        return {"atomic": self.atomic, "classes": [sorted(c) for c in self.explicit_classes]}

    @staticmethod
    def from_json(data: dict) -> "SigmaPartition":
        """Read ``{"classes": [[2, 3], [5]], "atomic": false}`` as to_json
        writes it, without coercion: no other key, the classes and each class
        are lists, every member an int (not a bool), and atomic a boolean."""
        if not isinstance(data, dict):
            raise GroupInputError("partition spec must be a JSON object")
        unknown = sorted(set(data) - {"classes", "atomic"})
        if unknown:
            raise GroupInputError(f"partition spec has unknown keys {unknown}")
        classes = data.get("classes", [])
        atomic = data.get("atomic", False)
        if not isinstance(atomic, bool):
            raise GroupInputError(f"partition spec atomic must be true or false, got {atomic!r}")
        if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
            raise GroupInputError("partition spec classes must be a list of lists")
        for p in (p for cls in classes for p in cls):
            if not isinstance(p, int) or isinstance(p, bool):
                raise GroupInputError(f"partition spec member {p!r} is not an integer")
        return SigmaPartition(tuple(map(frozenset, classes)), atomic=atomic)


ATOMIC = SigmaPartition(atomic=True)


def parse_sigma_spec(text: str) -> SigmaPartition:
    """Parse 'atomic' or a JSON object like {"classes": [[2, 3], [5]]}.
    Every call gives a new partition, 'atomic' included, so the memos a
    caller fills on it live no longer than the caller holds it."""
    text = text.strip()
    if text == "atomic":
        return SigmaPartition(atomic=True)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: an integer past 4300 digits too
        raise GroupInputError(f"bad partition spec: {exc}") from exc
    return SigmaPartition.from_json(data)


@dataclass(frozen=True)
class SigmaClass:
    partition: SigmaPartition
    kind: str  # "explicit" | "residual" | "atomic"
    index: int | None = None
    prime: int | None = None
    # derived from the fields above at construction, not compared
    tag: str = field(init=False, repr=False, compare=False)
    sort_key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "explicit":
            tag = f"explicit:{self.index}"
        elif self.kind == "atomic":
            tag = f"atomic:{self.prime}"
        else:
            tag = "residual"
        rank = {"explicit": 0, "atomic": 1, "residual": 2}[self.kind]
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "sort_key", (
            rank, self.index if self.index is not None else self.prime or 0))
        object.__setattr__(self, "_hash",
                           hash((self.partition, self.kind, self.index, self.prime)))

    def __hash__(self) -> int:
        return self._hash

    def contains(self, p: int) -> bool:
        found = self.partition.classify(p)
        return found is self or found == self

    def __str__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class PiSet:
    classes: frozenset[SigmaClass]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        partitions = {c.partition for c in self.classes}
        if len(partitions) > 1:
            raise DomainError("all classes of a class set must come from one partition")
        object.__setattr__(self, "_hash", hash((self.classes,)))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, cls: SigmaClass) -> bool:
        return cls in self.classes


def sigma_of_int(n: int, sigma: SigmaPartition) -> frozenset[SigmaClass]:
    """Classes touched by the prime divisors of n; empty for n = 1.
    Memoised per partition."""
    found = sigma._of_int.get(n)
    if found is None:
        if n < 1:
            raise DomainError(f"sigma_of_int needs a positive integer, got {n}")
        found = sigma._of_int[n] = frozenset(map(sigma.classify, primes_of(n)))
    return found


def sigma_of_group(group, sigma: SigmaPartition) -> frozenset[SigmaClass]:
    return sigma_of_int(group.order, sigma)


def sigma_coprime(n: int, m: int, sigma: SigmaPartition) -> bool:
    """True when n and m touch no common class."""
    return not (sigma_of_int(n, sigma) & sigma_of_int(m, sigma))


def pi_part(n: int, pi: frozenset[SigmaClass]) -> int:
    """Largest divisor of n whose prime factors all lie in classes of pi."""
    out = 1
    for p, e in prime_factors(n):
        if any(c.contains(p) for c in pi):
            out *= p**e
    return out
