"""Structural predicates of a finite group relative to a prime partition.

Solubility and nilpotency notions are read off chief-factor data; the
class-local nilpotency predicate uses the normal-complement criterion.  Each
quantity has one route here; the independent cross-check routes live with
the tests.  A proved fact that the data contradicts (a unique maximum, the
Schmidt shape) is surfaced as CrossCheckError, never patched over.

Degenerate input: the trivial group counts as soluble, nilpotent and
dispersive in every sense, and is neither Schmidt nor critical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossCheckError, DomainError
from .perm import Permutation
from .group import (DEFAULT_LIMITS, EngineLimits, PermGroup, Subgroup,
                    _normal_subgroup_sets, all_subgroups,
                    centralizer_of_factor, chief_series, core_series_subgroup,
                    is_normal, normal_subgroups, quotient, sylow,
                    two_generated_subgroups)
from .sigma import (PiSet, SigmaClass, SigmaPartition, pi_part, class_part,
                    prime_factors, primes_of, sigma_of_int)


def _memo(G: PermGroup, key, compute):
    if key not in G._cache:
        G._cache[key] = compute()
    return G._cache[key]


# ---------------------------------------------------------------------------
# chief-factor data


def _chief_invariants(G: PermGroup, limits: EngineLimits) -> tuple[tuple[int, int], ...]:
    """(factor order, automizer order) for each factor of one chief series.

    The automizer order |G / C_G(H/K)| together with |H/K| carries all the
    arithmetic the predicates below need; by Jordan-Holder the multiset of
    verdicts does not depend on the chosen series.
    """
    def compute():
        cs = chief_series(G, limits)
        out = []
        for below, above in zip(cs.terms, cs.terms[1:]):
            c = centralizer_of_factor(G, above, below, limits)
            out.append((above.order // below.order, G.order // c.order))
        return tuple(out)
    return _memo(G, "chief_inv", compute)


# ---------------------------------------------------------------------------
# solubility and nilpotency


def is_sigma_soluble(G: PermGroup, sigma: SigmaPartition,
                     limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Every chief factor order lies inside a single class."""
    if G.is_trivial:
        return True
    def compute():
        return all(len(sigma_of_int(fo, sigma)) == 1
                   for fo, _ in _chief_invariants(G, limits))
    return _memo(G, ("soluble", sigma), compute)


def is_sigma_nilpotent(G: PermGroup, sigma: SigmaPartition,
                       limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Every chief factor is central for some class: the factor order and the
    automizer order fall inside one common class."""
    if G.is_trivial:
        return True
    def compute():
        return all(len(sigma_of_int(fo * ao, sigma)) == 1
                   for fo, ao in _chief_invariants(G, limits))
    return _memo(G, ("nilpotent_sigma", sigma), compute)


def is_nilpotent(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Nilpotent = every Sylow subgroup is normal."""
    def compute():
        return all(is_normal(G, sylow(G, p, limits), limits)
                   for p, _ in prime_factors(G.order))
    return _memo(G, "nilpotent", compute)


def is_class_nilpotent(G: PermGroup, cls: SigmaClass,
                       limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Class-local nilpotency: G has a normal complement for cls, i.e. a
    normal Hall subgroup avoiding every cls prime."""
    def compute():
        target = G.order // class_part(G.order, cls)
        return any(len(s) == target for s, _ in _normal_subgroup_sets(G, limits))
    return _memo(G, ("class_nilpotent", cls), compute)


def f_class_subgroup(G: PermGroup, cls: SigmaClass,
                     limits: EngineLimits = DEFAULT_LIMITS) -> Subgroup:
    """Largest normal subgroup that is class-nilpotent for cls.

    The maximum is unique (the class is closed under normal products); the
    scan asserts that instead of assuming it."""
    def compute():
        best = None
        hits = []
        for n in normal_subgroups(G, limits):
            if is_class_nilpotent(n.group, cls, limits):
                hits.append(n)
                if best is None or n.order > best.order:
                    best = n
        for n in hits:
            if not n.indices <= best.indices:
                raise CrossCheckError(
                    "class-nilpotent normal subgroups admit no unique maximum")
        return best
    return _memo(G, ("f_class", cls), compute)


# ---------------------------------------------------------------------------
# Schmidt groups and critical subgroups


@dataclass(frozen=True)
class SchmidtShape:
    p: int                 # prime of the normal Sylow subgroup
    q: int                 # prime of the cyclic complement
    normal_sylow: Subgroup
    complement_generator: Permutation  # order = full q-part


def schmidt_decomposition(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS):
    """P . <x> shape: a normal Sylow p-subgroup with cyclic Sylow q-complement.
    Returns a SchmidtShape, or None when G does not have that shape."""
    def compute():
        facts = prime_factors(G.order)
        if len(facts) != 2:
            return None
        for (p, _), (q, qe) in (facts, facts[::-1]):
            ps = sylow(G, p, limits)
            if not is_normal(G, ps, limits):
                continue
            q_target = q**qe
            for x in G.elements(limits):
                if x.order() == q_target:
                    return SchmidtShape(p, q, ps, x)
        return None
    return _memo(G, "schmidt_shape", compute)


def is_schmidt(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Not nilpotent, but every proper subgroup is nilpotent.  Positives are
    additionally checked against the P . <x> shape."""
    def compute():
        if G.is_trivial or is_nilpotent(G, limits):
            return False
        for s in all_subgroups(G, limits):
            if s.order < G.order and not is_nilpotent(s.group, limits):
                return False
        if schmidt_decomposition(G, limits) is None:
            raise CrossCheckError(
                "a minimal non-nilpotent group failed the normal-Sylow shape check")
        return True
    return _memo(G, "schmidt", compute)


def is_critical(G: PermGroup, sigma: SigmaPartition,
                limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """Not sigma-nilpotent, but every proper subgroup is sigma-nilpotent.

    Any positive must be a Schmidt group (two prime divisors, normal Sylow
    with cyclic complement, not nilpotent), so those partition-independent
    screens run first and are shared across partitions.  The proper-subgroup
    scan runs over two-generated subgroups only, and is exact: a group that
    is not sigma-nilpotent and not critical contains a proper critical
    subgroup, which is a Schmidt group and so two-generated.  Subgroup
    orders inside one class are skipped without building anything: a
    class-primary group is always sigma-nilpotent.
    """
    def compute():
        if G.is_trivial or len(prime_factors(G.order)) != 2:
            return False
        if schmidt_decomposition(G, limits) is None or is_nilpotent(G, limits):
            return False
        if len(sigma_of_int(G.order, sigma)) == 1:
            return False  # class-primary, hence sigma-nilpotent
        # here G = P . <x> with distinct classes for p and q, and Q is not
        # normal, so G is not sigma-nilpotent; criticality is decided by the
        # proper-subgroup scan alone
        for s in two_generated_subgroups(G, limits):
            if s.order == G.order or len(sigma_of_int(s.order, sigma)) == 1:
                continue
            if not is_sigma_nilpotent(s.group, sigma, limits):
                return False
        return True
    return _memo(G, ("critical", sigma), compute)


# ---------------------------------------------------------------------------
# Hall closure, dispersion, class length


def is_pi_closed(G: PermGroup, pi: PiSet, limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """G has a normal Hall subgroup for the class set pi."""
    def compute():
        target = pi_part(G.order, pi)
        return any(len(s) == target for s, _ in _normal_subgroup_sets(G, limits))
    return _memo(G, ("pi_closed", pi), compute)


def _normal_hall_for_class(G: PermGroup, cls: SigmaClass,
                           limits: EngineLimits) -> Subgroup | None:
    target = class_part(G.order, cls)
    for n in normal_subgroups(G, limits):
        if n.order == target:
            return n
    return None


def is_sigma_dispersive(G: PermGroup, sigma: SigmaPartition,
                        limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """A tower of normal Hall class-subgroups exhausts G, built greedily:
    grab any class with a normal Hall subgroup, pass to the quotient, repeat.
    Greed loses nothing; dispersion is quotient-closed, so any normal Hall
    bottom extends to a full tower whenever one exists."""
    def compute():
        cur = G
        while cur.order > 1:
            step = None
            for cls in sorted(sigma_of_int(cur.order, sigma), key=lambda c: c.sort_key):
                n = _normal_hall_for_class(cur, cls, limits)
                if n is not None:
                    step = n
                    break
            if step is None:
                return False
            cur = quotient(cur, step, limits).image
        return True
    return _memo(G, ("dispersive", sigma), compute)


@dataclass(frozen=True)
class SigmaLengthProfile:
    sigma_class: SigmaClass
    length: int  # nontrivial cls-terms in the upper alternating series


def sigma_length(G: PermGroup, cls: SigmaClass,
                 limits: EngineLimits = DEFAULT_LIMITS) -> SigmaLengthProfile:
    """Length of the upper alternating series for cls: pull back the core
    avoiding cls, then the cls-core of the quotient, and repeat from the new
    floor; count the cls-steps that moved.  A round that makes no progress
    below the top means G is not separable for this class."""
    def compute():
        if G.is_trivial:
            return SigmaLengthProfile(cls, 0)
        u = G.universe(limits)
        full = frozenset(range(u.n))
        cur = frozenset({u.identity})
        length = 0
        while cur != full:
            q = quotient(G, Subgroup(G, cur), limits)
            away = [p for p in primes_of(q.image.order) if not cls.contains(p)]
            d = q.preimage_indices(core_series_subgroup(q.image, away, limits))
            if d == full:
                break
            q2 = quotient(G, Subgroup(G, d), limits)
            toward = [p for p in primes_of(q2.image.order) if cls.contains(p)]
            e = q2.preimage_indices(core_series_subgroup(q2.image, toward, limits))
            if e == d:
                raise DomainError(
                    f"upper series for class {cls} stalls below the whole group")
            length += 1
            cur = e
        return SigmaLengthProfile(cls, length)
    return _memo(G, ("sigma_length", cls), compute)
