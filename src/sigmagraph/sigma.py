"""Partitions of the primes into classes, and class arithmetic on integers.

A partition is given by finitely many explicit prime classes plus an implicit
residual class holding every other prime, or by the atomic partition in which
each prime is its own class.  Classes are value objects tied to their
partition, so classes from different partitions never compare equal.  Each
partition object keeps the class of every prime it has classified, so a
repeated ``classify(p)`` returns the same object, and the class set of every
integer ``sigma_of_int`` was asked for; only an int hits these memos, so a
float or a bool is refused however often its int was asked.  A class is
its partition and its tag; its sort key does not enter equality, and
partitions, classes and class sets compute their hash once, at
construction.  An integer above ``_MAX_PRIME`` is refused (cap
``max_prime``) before it is factored, since trial division of a large prime
would not finish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import DomainError, GroupInputError, ResourceLimitError

# bound on an integer tested for primality: a partition spec's class member
# or a prime given to classify
_MAX_PRIME = 10**6


def _is_int(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool)


# typed, so that 3.0 or True is not read from the entry of 3 or 1
@lru_cache(maxsize=None, typed=True)
def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of an int n >= 1 in increasing prime order."""
    if not _is_int(n) or n < 1:
        raise DomainError(f"cannot factor {n!r}; need a positive integer")
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


@lru_cache(maxsize=None, typed=True)
def primes_of(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in prime_factors(n))


def _is_prime(p: int) -> bool:
    """False for anything but an int prime (a bool or a float included)."""
    if not _is_int(p):
        return False
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
        # a float or bool misses the memo, so 3.0 is not read from the entry of 3
        found = self._classes.get(p) if type(p) is int else None
        if found is None:
            found = self._classes[p] = self._new_class(p)
        return found

    def _new_class(self, p: int) -> "SigmaClass":
        if not _is_prime(p):
            raise DomainError(f"{p} is not a prime")
        if self.atomic:
            return SigmaClass(self, f"atomic:{p}", (1, p))
        for i, cls in enumerate(self.explicit_classes):
            if p in cls:
                return SigmaClass(self, f"explicit:{i}", (0, i))
        return SigmaClass(self, "residual", (2, 0))

    def to_json(self) -> dict:
        """Keys in sorted order; reports embed ``_json_text``, its dump made on first use."""
        return {"atomic": self.atomic, "classes": [sorted(c) for c in self.explicit_classes]}

    @cached_property
    def _json_text(self) -> str:
        return json.dumps(self.to_json())

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
            if not _is_int(p):
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
    """A class of a partition, named by its tag (``explicit:<i>``,
    ``atomic:<p>`` or ``residual``), with a sort key (``_new_class``)."""
    partition: SigmaPartition
    tag: str
    sort_key: tuple = field(compare=False)  # explicit, atomic, then residual
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.partition, self.tag)))

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


def sigma_of_int(n: int, sigma: SigmaPartition) -> frozenset[SigmaClass]:
    """Classes touched by the prime divisors of n; empty for n = 1.
    Memoised per partition; anything but an int n >= 1 (a float or a bool
    too) raises DomainError, whatever was asked before."""
    found = sigma._of_int.get(n) if type(n) is int else None
    if found is None:
        if not _is_int(n) or n < 1:
            raise DomainError(f"sigma_of_int needs a positive integer, got {n}")
        found = sigma._of_int[n] = frozenset(map(sigma.classify, primes_of(n)))
    return found


def sigma_of_group(group, sigma: SigmaPartition) -> frozenset[SigmaClass]:
    return sigma_of_int(group.order, sigma)


def sigma_coprime(n: int, m: int, sigma: SigmaPartition) -> bool:
    """True when n and m touch no common class."""
    return not (sigma_of_int(n, sigma) & sigma_of_int(m, sigma))


def _p_part(n: int, primes) -> int:
    """The largest divisor of n whose prime factors all lie in primes."""
    m = 1
    for p in primes:
        while n % p == 0:
            n //= p
            m *= p
    return m


def pi_part(n: int, pi: frozenset[SigmaClass]) -> int:
    """Largest divisor of n whose prime factors all lie in classes of pi."""
    return _p_part(n, [p for p in primes_of(n) if any(c.contains(p) for c in pi)])
