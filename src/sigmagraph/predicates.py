"""Structural predicates of a finite group relative to a prime partition.

Sigma-nilpotency (hence nilpotency), class-local nilpotency and dispersion
each ask for normal Hall subgroups, decided by one pi-closure test on the
group's own element table.  The Schmidt types and the Schmidt test come off
element pairs in that table.  Sigma-solubility, F_i and the class length
are three readings of one walk per class, cached on G (``_upper_series``):
G's upper alternating series for the class, which from the trivial
subgroup steps to the largest normal subgroup over the current term whose
index avoids the class, then to the largest one over that whose index lies
in it, until it reaches G or stalls.  F_i is the first class-term, the
class length counts the class-steps that moved, and G is sigma-soluble iff
the walk reaches G for every class of |G|.  Each step is one pass over the
conjugacy classes (``_largest_normal_over``), which by the correspondence
theorem is a core of the quotient by the current term.  Neither the normal
lattice nor a chief series is built, and no subgroup or quotient is built
as a group of its own.
Each quantity has one route here; the cross-check routes live with the
tests.  A proved fact that the data contradicts (a unique maximum, a
normal Hall subgroup) is surfaced as CrossCheckError, never patched over.

Degenerate input: the trivial group counts as soluble, nilpotent and
dispersive in every sense, and is neither Schmidt nor critical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossCheckError, DomainError
from .perm import Permutation
from .group import PermGroup, Subgroup, _largest_normal_over, _memo, is_normal, sylow
from .sigma import (ATOMIC, PiSet, SigmaClass, SigmaPartition, pi_part,
                    prime_factors, primes_of, sigma_of_int)


# ---------------------------------------------------------------------------
# solubility and nilpotency


def _upper_series(G: PermGroup, cls: SigmaClass):
    """(F_cls(G), length, separable) off G's upper alternating series for
    cls.  From the trivial term, step to the largest normal subgroup over the
    current term whose index avoids cls, then to the largest one over that
    whose index lies in cls, and repeat until the walk reaches G (separable)
    or a cls-step makes no progress below G (a stall: no minimal normal
    subgroup of the quotient is a cls-group or a cls'-group).  F is the
    first cls-term, or G when the first cls'-term is G already; length
    counts the cls-steps that moved."""
    def compute():
        primes = primes_of(G.order)
        away = [p for p in primes if not cls.contains(p)]
        toward = [p for p in primes if cls.contains(p)]
        u = G.universe()
        full = frozenset(range(u.n))
        cur, first, length = frozenset({u.identity}), None, 0
        while cur != full:
            floor = _largest_normal_over(G, cur, away)
            if floor == full:
                break
            cur = _largest_normal_over(G, floor, toward)
            first = first or cur
            if cur == floor:
                return first, length, False
            length += 1
        return first or full, length, True
    return _memo(G, ("series", cls), compute)


def is_sigma_soluble(G: PermGroup, sigma: SigmaPartition) -> bool:
    """Every chief factor is a group of a single class.  A chief factor is
    one iff, for every class c of |G|, it is a c-group or a c'-group; so G is
    sigma-soluble iff the upper series for every class reaches G
    (``_upper_series``).  Classes go in sort_key order, so the walks that an
    early exit leaves undone do not depend on hash order."""
    return all(_upper_series(G, cls)[2]
               for cls in sorted(sigma_of_int(G.order, sigma), key=lambda c: c.sort_key))


def is_sigma_nilpotent(G: PermGroup, sigma: SigmaPartition) -> bool:
    """G is the direct product of its Hall class-subgroups, that is, has a
    normal Hall subgroup for each class of |G| (Skiba, J. Algebra 436
    (2015)); the paper's sigma-central chief factors say the same."""
    return all(is_pi_closed(G, PiSet(frozenset({cls})))
               for cls in sorted(sigma_of_int(G.order, sigma), key=lambda c: c.sort_key))


def is_nilpotent(G: PermGroup) -> bool:
    """Every Sylow subgroup is normal: sigma-nilpotency for the atomic
    partition."""
    return is_sigma_nilpotent(G, ATOMIC)


def f_class_subgroup(G: PermGroup, cls: SigmaClass) -> Subgroup:
    """Largest normal N that is class-nilpotent for cls, that is, has a
    normal Hall subgroup M avoiding cls (characteristic in N, hence normal in
    G).  Read as the first cls-term of the upper series for cls
    (``_upper_series``): O, the largest normal subgroup avoiding cls, then
    the largest normal N over O with |N : O| in cls.  Such an N is
    class-nilpotent with M = O; and any class-nilpotent normal N has M
    inside O and NO/O a cls-group, so NO lies in that N."""
    return Subgroup(G, _upper_series(G, cls)[0])


def is_class_nilpotent(G: PermGroup, cls: SigmaClass) -> bool:
    """Class-local nilpotency: G has a normal complement for cls, i.e. a
    normal Hall subgroup for the other classes of |G|; equivalently
    F_cls(G) = G."""
    return is_pi_closed(G, PiSet(sigma_of_int(G.order, cls.partition) - {cls}))


# ---------------------------------------------------------------------------
# Schmidt groups and critical subgroups


@dataclass(frozen=True)
class SchmidtShape:
    p: int                 # prime of the normal Sylow subgroup
    q: int                 # prime of the cyclic complement
    normal_sylow: Subgroup
    complement_generator: Permutation  # order = full q-part


def schmidt_decomposition(G: PermGroup):
    """P . <x> shape: a normal Sylow p-subgroup with cyclic Sylow q-complement.
    Returns a SchmidtShape, or None when G does not have that shape."""
    def compute():
        facts = prime_factors(G.order)
        if len(facts) != 2:
            return None
        for (p, _), (q, qe) in (facts, facts[::-1]):
            ps = sylow(G, p)
            if not is_normal(G, ps):
                continue
            q_target = q**qe
            for x in G.elements():
                if x.order() == q_target:
                    return SchmidtShape(p, q, ps, x)
        return None
    return _memo(G, "schmidt_shape", compute)


def _schmidt_pairs(G: PermGroup):
    """(p, q, y, subgroups) for each representative y of a conjugacy class of
    q-elements and each prime p != q of |G|.  subgroups lazily lists
    P = <a^<y>> over the p-elements a with [a, y] != 1 whose y-orbit
    generates a p-group, that is, a subgroup of order dividing |G|_p (a
    smaller closure can mix primes, like D5 in S6).  Then P<y> is not
    nilpotent, so it holds a Schmidt subgroup of type (p, q); and a Schmidt
    subgroup P0 . <y> gives a pair with a in P0 outside C(y) (Schmidt 1924;
    Huppert, Endliche Gruppen I, III.5).

    P depends only on the <y>-orbit of <a>, and so does [a, y] != 1: every
    generator of <a> and every member of a's y-orbit gives the same P.  So
    each such orbit is taken up once, at its first a; an a whose least
    generator (``canon``) lies in an orbit taken up before is skipped, and
    subgroups lists the same distinct P in the same first-seen order.  Each
    orbit is joined towards |G|_p (``_Universe.join``)."""
    u = G.universe()
    canon = u.canon
    facts = prime_factors(u.n)
    p_elements = {p: [i for i in range(u.n) if u.orders[i] > 1 and p**e % u.orders[i] == 0]
                  for p, e in facts}

    def subgroups(y, ps, target):
        conj = dict(zip(ps, u.conjugates(y, ps)))  # conjugates of p-elements are p-elements
        done = set()  # least generators of the <a> in the orbits taken up so far
        for a in ps:
            if conj[a] == a or canon[a] in done:
                continue
            orbit, x = [a], conj[a]
            while x != a:
                orbit.append(x)
                x = conj[x]
            done.update(canon[x] for x in orbit)
            if (s := u.join(orbit, target)) is not None:
                yield s

    for cls in u.conjugacy_classes():
        y = cls[0]
        q = primes_of(u.orders[y])
        if len(q) == 1:
            for p, e in facts:
                if p != q[0]:
                    yield p, q[0], y, subgroups(y, p_elements[p], p**e)


def schmidt_types(G: PermGroup) -> frozenset[tuple[int, int]]:
    """The types (p, q) of the Schmidt subgroups of G: p is the prime of the
    normal Sylow subgroup, q the prime of the cyclic complement.  One pair
    per type settles it."""
    def compute():
        types = set()
        for p, q, _, subgroups in _schmidt_pairs(G):
            if (p, q) not in types and next(subgroups, None) is not None:
                types.add((p, q))
        return frozenset(types)
    return _memo(G, "schmidt_types", compute)


def is_schmidt(G: PermGroup) -> bool:
    """Not nilpotent, but every proper subgroup is nilpotent.  G is not
    nilpotent exactly when it has a pair (a, y), and a proper non-nilpotent
    subgroup holds a Schmidt subgroup, which gives a pair inside it up to
    conjugacy.  So G is Schmidt when it has pairs and each spans <P, y> = G."""
    def compute():
        u = G.universe()
        spans = (len(u.closure((y,), base=s)) == u.n
                   for _, _, y, subgroups in _schmidt_pairs(G) for s in subgroups)
        return next(spans, False) and all(spans)  # no pair: G is nilpotent
    return _memo(G, "schmidt", compute)


def is_critical(G: PermGroup, sigma: SigmaPartition) -> bool:
    """Not sigma-nilpotent, but every proper subgroup is sigma-nilpotent.

    These are exactly the Schmidt groups P . <y> whose two primes lie in
    different classes.  Such a group is not sigma-nilpotent (its Sylow
    q-subgroup is not normal) while its proper subgroups are nilpotent; and
    a critical group is a Schmidt group (Skiba, J. Algebra 436 (2015))."""
    return len(sigma_of_int(G.order, sigma)) == 2 and is_schmidt(G)


# ---------------------------------------------------------------------------
# Hall closure, dispersion, class length


def _pi_closed_indices(G: PermGroup, idxs, pi: PiSet) -> bool:
    """Whether the subgroup H of G with index set idxs has a normal Hall
    subgroup for the class set pi.  The pi-elements of H (orders dividing
    |H|_pi) generate a normal subgroup that holds a Sylow p-subgroup for each
    p in pi, so its order is a multiple of |H|_pi; it is a normal Hall
    subgroup exactly when it is no larger, and a normal Hall subgroup holds
    every pi-element.  A pi-group or pi'-group (|H|_pi = |H| or 1) is its
    own or the trivial normal Hall subgroup, decided without a closure."""
    u = G.universe()
    target = pi_part(len(idxs), pi.classes)
    if target == 1 or target == len(idxs):
        return True
    generated = u.closure([i for i in idxs if target % u.orders[i] == 0], cap=target)
    if generated is not None and len(generated) != target:
        raise CrossCheckError("the pi-elements generate a subgroup below the pi-part")
    return generated is not None


def is_pi_closed(G: PermGroup, pi: PiSet) -> bool:
    """G has a normal Hall subgroup for the class set pi."""
    return _memo(G, ("pi_closed", pi),
                 lambda: _pi_closed_indices(G, range(G.order), pi))


def is_sigma_dispersive(G: PermGroup, sigma: SigmaPartition) -> bool:
    """A tower of normal Hall class-set subgroups exhausts G, built greedily:
    with a normal Hall subgroup for the classes taken so far, take the first
    class whose addition still leaves G closed, and repeat.  Greed loses
    nothing; dispersion is quotient-closed, so any normal Hall bottom
    extends to a full tower whenever one exists."""
    left = sorted(sigma_of_int(G.order, sigma), key=lambda c: c.sort_key)
    taken = frozenset()
    while left:
        cls = next((c for c in left if is_pi_closed(G, PiSet(taken | {c}))), None)
        if cls is None:
            return False
        taken |= {cls}
        left.remove(cls)
    return True


def sigma_length(G: PermGroup, cls: SigmaClass) -> int:
    """Length of the upper alternating series for cls (``_upper_series``):
    the number of its cls-steps that moved.  A series that stalls below G
    means G is not separable for this class, and raises DomainError on
    every call (the walk is cached, the error is not)."""
    _, length, separable = _upper_series(G, cls)
    if not separable:
        raise DomainError(f"upper series for class {cls} stalls below the whole group")
    return length
