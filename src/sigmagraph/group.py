"""Permutation-group kernel: generated groups, subgroup search, quotients, series.

All public values are immutable after construction and every operation is a
pure function of its inputs; internal caches are write-once and only ever
reused, never mutated, so memoisation is observationally transparent.

Desk-scale design: groups are small enough to enumerate their elements, and
subgroup work runs on an indexed multiplication table of the ambient group
(``_Universe``).  Only the generators' rows of that table are composed from
images; the other rows are gathered from them along the Cayley graph.  A
subgroup is its set of element indices in that table plus a few generator
indices; its own PermGroup is built only when a caller treats it as a group
in its own right.  Every subgroup is generated by ``_Universe.closure``,
which extends a subgroup the caller already holds by new generators, one
left coset at a time (Dimino's algorithm; Butler, Fundamental Algorithms for
Permutation Groups, LNCS 559).  Enumeration caps are explicit configuration;
hitting one raises a ResourceLimitError naming the cap instead of silently
truncating.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter

from .bsgs import Bsgs
from .errors import CrossCheckError, DomainError, GroupInputError, ResourceLimitError
from .perm import Permutation
from .sigma import prime_factors


@dataclass(frozen=True)
class EngineLimits:
    """Enumeration caps. Orders are group-order gates; count and work caps
    guard the subgroup-lattice closure, whose size is not a function of the
    group order alone."""

    max_subgroup_order: int = 500
    max_element_order: int = 5000
    max_subgroup_count: int = 4000
    max_join_work: int = 400_000


DEFAULT_LIMITS = EngineLimits()

_TABLE_LIMIT = 1500  # build a full multiplication table up to this order


class PermGroup:
    """Finite permutation group whose order and elements come from a strong
    generating set."""

    __slots__ = ("degree", "generators", "bsgs", "order", "_cache")

    def __init__(self, degree: int, generators):
        if degree < 1:
            raise GroupInputError(f"degree must be positive, got {degree}")
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise GroupInputError(f"generator {g!r} is not a Permutation")
            if g.degree != degree:
                raise GroupInputError(f"generator {g} has degree {g.degree}, expected {degree}")
        self.degree = degree
        self.generators = gens
        self.bsgs = Bsgs(degree, gens)
        self.order = self.bsgs.order
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def elements(self, limits: EngineLimits = DEFAULT_LIMITS) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple.  Capped by max_element_order."""
        cached = self._cache.get("elements")
        if cached is not None:
            return cached
        if self.order > limits.max_element_order:
            raise ResourceLimitError(
                f"group of order {self.order} is too large to enumerate",
                cap_name="max_element_order", cap_value=limits.max_element_order)
        elems = tuple(sorted(self.bsgs.elements(), key=lambda p: p.images))
        if len(elems) != self.order:
            raise CrossCheckError("element enumeration disagrees with the strong generating set order")
        self._cache["elements"] = elems
        return elems

    def universe(self, limits: EngineLimits = DEFAULT_LIMITS) -> "_Universe":
        u = self._cache.get("universe")
        if u is None:
            u = _Universe(self.elements(limits), self.generators)
            self._cache["universe"] = u
        return u


class Subgroup:
    """A subgroup of a fixed parent group, held as its set of element indices
    in the parent's element table (``parent.universe()``).

    ``gens`` are element indices that generate it: the given ones when there
    are at most four, else a small canonical set.  Order, elements and
    containment are read off the index set.  ``group``, the subgroup as a
    ``PermGroup`` in its own right, is built from ``gens`` on first use and
    checked against the index set."""

    __slots__ = ("parent", "indices", "gens", "_group")

    def __init__(self, parent: PermGroup, indices: frozenset[int], gens=None):
        if gens is None or len(gens) > 4:
            gens = parent.universe().derive_gens(indices)
        self.parent = parent
        self.indices = indices
        self.gens = tuple(gens)
        self._group: PermGroup | None = None

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @property
    def group(self) -> PermGroup:
        if self._group is None:
            perms = self.parent.universe().perms
            grp = PermGroup(self.parent.degree, tuple(perms[i] for i in self.gens))
            if grp.order != self.order:
                raise CrossCheckError("materialised subgroup order disagrees with its index set")
            grp._cache["elements"] = self.elements()
            self._group = grp
        return self._group

    def elements(self, limits: EngineLimits = DEFAULT_LIMITS) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple like ``PermGroup.elements``."""
        perms = self.parent.universe(limits).perms
        return tuple(perms[i] for i in sorted(self.indices))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"


def subgroup(parent: PermGroup, generators) -> Subgroup:
    """Subgroup of parent generated by the given elements; an element outside
    parent raises DomainError."""
    u = parent.universe()
    gens = tuple(u.idx_of(g) for g in generators)
    return Subgroup(parent, u.closure(gens), gens)


def _getter(idx):
    """``itemgetter(*idx)`` that returns a tuple also for a single index."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    return itemgetter(*idx)


class _ComposedRows:
    """Stand-in for the multiplication table above ``_TABLE_LIMIT``:
    ``rows[x][y]`` composes the images of x and y when it is read."""

    __slots__ = ("u", "x")

    def __init__(self, u: "_Universe", x: int | None = None):
        self.u = u
        self.x = x

    def __getitem__(self, i: int):
        if self.x is None:
            return _ComposedRows(self.u, i)
        return self.u.mul(self.x, i)


class _Universe:
    """Index arithmetic over one group's full, canonically sorted element list.

    Up to ``_TABLE_LIMIT`` elements, ``mul_rows[x]`` is row x of the
    multiplication table: ``mul_rows[x][y]`` is the index of x·y (x first,
    then y).  Only the generator rows are composed from images; every other
    row comes from a walk over the Cayley graph from the identity, since
    row(x·g) = row(x) read at the positions row(g) (associativity), one
    C-level gather per row.  Inverses are read off the rows."""

    __slots__ = ("perms", "images", "index", "n", "degree", "identity", "mul_rows", "inv_arr",
                 "orders", "_cyc")

    def __init__(self, perms: tuple[Permutation, ...], generators=()):
        self._cyc = None
        self.perms = perms
        self.images = images = [p.images for p in perms]
        self.index = index = {im: i for i, im in enumerate(images)}
        self.n = n = len(perms)
        self.degree = perms[0].degree
        self.identity = ident = index[tuple(range(self.degree))]
        self.orders = array("l", (p.order() for p in perms))
        if n > _TABLE_LIMIT:
            self.mul_rows = None
            self.inv_arr = array("l", (index[p.inverse().images] for p in perms))
            return
        typecode = "H" if n <= 0xFFFF else "l"
        # row(g)[y] = g·y, composed from images; gathering row(x) there gives row(x·g)
        steps = [(g, _getter(array(typecode, map(index.__getitem__,
                                                 map(itemgetter(*images[g]), images)))))
                 for g in dict.fromkeys(index[p.images] for p in generators) if g != ident]
        rows: list = [None] * n
        rows[ident] = array(typecode, range(n))
        walk = [ident]
        for x in walk:
            row = rows[x]
            for g, gather in steps:
                y = row[g]
                if rows[y] is None:
                    rows[y] = array(typecode, gather(row))
                    walk.append(y)
        if len(walk) != n:
            raise CrossCheckError(
                f"the generators reach {len(walk)} of the {n} elements of the table")
        self.mul_rows = rows
        self.inv_arr = array("l", (row.index(ident) for row in rows))

    def mul(self, i: int, j: int) -> int:
        if self.mul_rows is not None:
            return self.mul_rows[i][j]
        q = self.images[j]
        return self.index[tuple(q[x] for x in self.images[i])]

    def conj(self, i: int, g: int) -> int:
        return self.mul(self.mul(self.inv_arr[g], i), g)

    def comm(self, g: int, h: int) -> int:
        return self.mul(self.mul(self.mul(self.inv_arr[g], self.inv_arr[h]), g), h)

    def idx_of(self, p: Permutation) -> int:
        try:
            return self.index[p.images]
        except KeyError:
            raise DomainError(f"element {p} lies outside the ambient group") from None

    def gen_idxs(self, group: PermGroup) -> tuple[int, ...]:
        out = []
        for g in group.generators:
            i = self.idx_of(g)
            if i != self.identity and i not in out:
                out.append(i)
        return tuple(out)

    def closure(self, gen_idxs, *, base: frozenset[int] | None = None,
                cap: int | None = None) -> frozenset[int] | None:
        """Subgroup generated by the subgroup ``base`` (trivial by default)
        and the given element indices; None when it has more than cap
        elements.

        Dimino's extension, one generator at a time: with H the subgroup so
        far and s a generator outside it, left cosets y·H (row y read at H)
        are added until their union is closed under right multiplication by
        s, which is checked per coset by reading row y at H·s.  A union of
        left cosets of H that holds H and is closed under ·s is <H, s>.  A
        subgroup with more than half the elements is the whole group.
        Without a table the rows are composed from images as they are read."""
        n = self.n
        rows = self.mul_rows if self.mul_rows is not None else _ComposedRows(self)
        inv = self.inv_arr
        limit = n if cap is None else min(cap, n)
        seen = set(base) if base else {self.identity}
        if len(seen) > limit:
            return None
        for s in gen_idxs:
            if s in seen:
                continue
            h = tuple(seen)
            coset = _getter(h)
            step = _getter(_getter(coset(rows[inv[s]]))(inv))  # H·s = (s⁻¹·H)⁻¹
            reps = [self.identity]
            for y in reps:
                ys = step(rows[y])
                if seen.issuperset(ys):
                    continue
                fresh = set(ys)
                fresh -= seen
                while fresh:
                    if len(seen) + len(h) > limit:
                        return None
                    z = fresh.pop()
                    new = coset(rows[z])
                    seen.update(new)
                    fresh.difference_update(new)
                    reps.append(z)
                if 2 * len(seen) > n:
                    return frozenset(range(n)) if limit == n else None
        return frozenset(seen)

    def derive_gens(self, idx_set: frozenset[int]) -> tuple[int, ...]:
        """Small deterministic generating sequence for a known subgroup set."""
        gens: list[int] = []
        cur: frozenset[int] = frozenset({self.identity})
        for i in sorted(idx_set):
            if i not in cur:
                gens.append(i)
                cur = self.closure((i,), base=cur)
                if len(cur) == len(idx_set):
                    break
        return tuple(gens)

    def cyclic_subgroups(self) -> dict[frozenset[int], tuple[int, ...]]:
        """All cyclic subgroups, keyed by element set, valued by one generator.
        Deterministic: each subgroup is tagged by its smallest generator."""
        if self._cyc is None:
            out: dict[frozenset[int], tuple[int, ...]] = {frozenset({self.identity}): ()}
            for i in range(self.n):
                if i == self.identity:
                    continue
                powers = {i}
                x = self.mul(i, i)
                while x != i:
                    powers.add(x)
                    x = self.mul(x, i)
                key = frozenset(powers)
                if key not in out:
                    out[key] = (i,)
            self._cyc = out
        return self._cyc

    def conjugacy_classes(self, gen_idxs) -> list[tuple[int, ...]]:
        """Orbits of conjugation by the generators, as sorted index tuples,
        ordered by smallest member."""
        seen = [False] * self.n
        classes = []
        for start in range(self.n):
            if seen[start]:
                continue
            orbit = {start}
            queue = [start]
            seen[start] = True
            while queue:
                x = queue.pop()
                for g in gen_idxs:
                    y = self.conj(x, g)
                    if not seen[y]:
                        seen[y] = True
                        orbit.add(y)
                        queue.append(y)
            classes.append(tuple(sorted(orbit)))
        return classes


# ---------------------------------------------------------------------------
# helpers


def _sorted_sets(sets) -> list[frozenset[int]]:
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def _require_subgroup_of(G: PermGroup, S: Subgroup, name: str) -> None:
    if S.parent is not G:
        raise DomainError(f"{name} is not a subgroup of the given group")


# ---------------------------------------------------------------------------
# centralisers, normalisers


def centralizer(G: PermGroup, S: Subgroup, limits: EngineLimits = DEFAULT_LIMITS) -> Subgroup:
    """Elements of G commuting with every element of S."""
    _require_subgroup_of(G, S, "S")
    u = G.universe(limits)
    idxs = frozenset(i for i in range(u.n) if all(u.mul(i, s) == u.mul(s, i) for s in S.gens))
    return Subgroup(G, idxs)


def normalizer(G: PermGroup, S: Subgroup, limits: EngineLimits = DEFAULT_LIMITS) -> Subgroup:
    """Elements of G conjugating S to itself."""
    _require_subgroup_of(G, S, "S")
    u = G.universe(limits)
    idxs = frozenset(i for i in range(u.n) if all(u.conj(s, i) in S.indices for s in S.gens))
    return Subgroup(G, idxs)


def is_normal(G: PermGroup, S: Subgroup, limits: EngineLimits = DEFAULT_LIMITS) -> bool:
    """True when S is normalised by every generator of G."""
    _require_subgroup_of(G, S, "S")
    u = G.universe(limits)
    return all(u.conj(s, g) in S.indices for g in u.gen_idxs(G) for s in S.gens)


def centralizer_of_factor(G: PermGroup, H: Subgroup, K: Subgroup,
                          limits: EngineLimits = DEFAULT_LIMITS) -> Subgroup:
    """Elements g of G with [g, H] inside K, for K normal in H."""
    _require_subgroup_of(G, H, "H")
    _require_subgroup_of(G, K, "K")
    u = G.universe(limits)
    k_set = K.indices
    if not k_set <= H.indices:
        raise DomainError("K is not contained in H")
    if not all(u.conj(k, h) in k_set for h in H.gens for k in K.gens):
        raise DomainError("K is not normal in H")
    idxs = frozenset(i for i in range(u.n) if all(u.comm(i, h) in k_set for h in H.gens))
    return Subgroup(G, idxs)


# ---------------------------------------------------------------------------
# normal subgroups and chief series


def _normal_subgroup_sets(G: PermGroup, limits: EngineLimits) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    cached = G._cache.get("normal_sets")
    if cached is not None:
        return cached
    u = G.universe(limits)
    classes = u.conjugacy_classes(u.gen_idxs(G))
    trivial = frozenset({u.identity})
    found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    queue = [trivial]
    while queue:
        n_set = queue.pop(0)
        for cls in classes:
            if cls[0] == u.identity or set(cls) <= n_set:
                continue
            m_set = u.closure(cls, base=n_set)
            if m_set not in found:
                found[m_set] = u.derive_gens(m_set)
                queue.append(m_set)
    out = [(s, found[s]) for s in _sorted_sets(found)]
    G._cache["normal_sets"] = out
    return out


def normal_subgroups(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS) -> list[Subgroup]:
    """Every normal subgroup of G, sorted by order then element list.

    A normal subgroup is a join of conjugacy classes, so the enumeration
    walks joins of classes to a fixpoint."""
    cached = G._cache.get("normal_subgroups")
    if cached is None:
        cached = tuple(Subgroup(G, s, g) for s, g in _normal_subgroup_sets(G, limits))
        G._cache["normal_subgroups"] = cached
    return list(cached)


@dataclass(frozen=True)
class ChiefSeries:
    group: PermGroup
    terms: tuple[Subgroup, ...]      # ascending, from trivial to the group


def chief_series(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS) -> ChiefSeries:
    """One chief series, built by repeatedly taking the canonically smallest
    minimal normal subgroup above the current term."""
    if G.is_trivial:
        raise DomainError("the trivial group has no chief series")
    cached = G._cache.get("chief_series")
    if cached is not None:
        return cached
    u = G.universe(limits)
    normal_sets = _normal_subgroup_sets(G, limits)
    chain: list[frozenset[int]] = [normal_sets[0][0]]
    full = frozenset(range(u.n))
    while chain[-1] != full:
        cur = chain[-1]
        above = [s for s, _ in normal_sets if cur < s]
        minimal = [s for s in above if not any(t < s for t in above if t is not s)]
        chain.append(minimal[0])
    gens_by_set = dict(normal_sets)
    terms = tuple(Subgroup(G, s, gens_by_set[s]) for s in chain)
    series = ChiefSeries(G, terms)
    G._cache["chief_series"] = series
    return series


# ---------------------------------------------------------------------------
# quotients


class QuotientGroup:
    """Quotient of a group by a normal subgroup, realised by the action on
    right cosets, together with the projection homomorphism."""

    __slots__ = ("source", "kernel", "image", "_proj")

    def __init__(self, source: PermGroup, kernel: Subgroup, image: PermGroup, proj: dict):
        self.source = source
        self.kernel = kernel
        self.image = image
        self._proj = proj

    @property
    def order(self) -> int:
        return self.image.order

    def project(self, p: Permutation) -> Permutation:
        try:
            return self._proj[p.images]
        except KeyError:
            raise DomainError(f"element {p} lies outside the quotient source") from None

    def preimage_indices(self, sub: Subgroup) -> frozenset[int]:
        """Indices in the source's element table of the elements that project
        into the given subgroup of the image."""
        if sub.parent is not self.image:
            raise DomainError("the subgroup does not lie in the quotient image")
        u, v = self.source.universe(), self.image.universe()
        return frozenset(i for i in range(u.n)
                         if v.idx_of(self._proj[u.images[i]]) in sub.indices)


def quotient(G: PermGroup, N: Subgroup, limits: EngineLimits = DEFAULT_LIMITS) -> QuotientGroup:
    """Quotient G/N via the faithful action on the cosets of N."""
    _require_subgroup_of(G, N, "N")
    u = G.universe(limits)
    n_set = N.indices
    cached = G._cache.get(("quotient", n_set))
    if cached is not None:
        return cached
    g_gens = u.gen_idxs(G)
    if not all(u.conj(n, g) in n_set for g in g_gens for n in N.gens):
        raise DomainError("cannot form the quotient: subgroup is not normal")
    if N.order == G.order:
        ident = Permutation.identity(1)
        image = PermGroup(1, ())
        proj = {u.images[i]: ident for i in range(u.n)}
        q = QuotientGroup(G, N, image, proj)
        G._cache[("quotient", n_set)] = q
        return q
    if N.order == 1:
        proj = {u.images[i]: u.perms[i] for i in range(u.n)}
        q = QuotientGroup(G, N, G, proj)
        G._cache[("quotient", n_set)] = q
        return q
    coset_of = [-1] * u.n
    reps: list[int] = []
    for i in range(u.n):
        if coset_of[i] >= 0:
            continue
        c = len(reps)
        reps.append(i)
        for n in n_set:
            coset_of[u.mul(n, i)] = c
    index = len(reps)
    proj = {}
    for x in range(u.n):
        images = tuple(coset_of[u.mul(r, x)] for r in reps)
        proj[u.images[x]] = Permutation(images)
    image = PermGroup(index, tuple(proj[u.images[g]] for g in g_gens))
    if image.order * N.order != G.order:
        raise CrossCheckError("coset action order disagrees with the index")
    for a in G.generators:
        for b in G.generators:
            if proj[(a * b).images] != proj[a.images] * proj[b.images]:
                raise CrossCheckError("coset projection is not a homomorphism on generators")
    q = QuotientGroup(G, N, image, proj)
    G._cache[("quotient", n_set)] = q
    return q


# ---------------------------------------------------------------------------
# subgroup enumeration


def _all_subgroup_sets(G: PermGroup, limits: EngineLimits) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    cached = G._cache.get("all_subgroup_sets")
    if cached is not None:
        return cached
    key = (limits.max_subgroup_order, limits.max_subgroup_count, limits.max_join_work)
    failure = G._cache.get("all_subgroup_sets_failure")
    if failure is not None and failure[0] == key:
        raise failure[1].fresh()
    if G.order > limits.max_subgroup_order:
        raise ResourceLimitError(
            f"group of order {G.order} is too large for subgroup enumeration",
            cap_name="max_subgroup_order", cap_value=limits.max_subgroup_order)
    u = G.universe(limits)
    try:
        items = _join_closure(u, list(u.cyclic_subgroups().items()), limits, fixpoint=True)
    except ResourceLimitError as exc:
        # the raised error's traceback holds the partial lattice: keep a copy
        G._cache["all_subgroup_sets_failure"] = (key, exc.fresh())
        raise
    out = sorted(items, key=lambda kv: (len(kv[0]), tuple(sorted(kv[0]))))
    G._cache["all_subgroup_sets"] = out
    return out


def _join_closure(u: _Universe, items: list, limits: EngineLimits, *, fixpoint: bool):
    """Close a family of (element set, generators) pairs under pairwise joins.

    With fixpoint=False only the initial pairs are joined (one pass)."""
    seen = {s for s, _ in items}
    full = frozenset(range(u.n))
    work = 0
    i = 1
    initial = len(items)
    while i < len(items):
        if fixpoint is False and i >= initial:
            break
        a_set, a_gens = items[i]
        for j in range(i):
            work += 1
            if work > limits.max_join_work:
                raise ResourceLimitError(
                    "subgroup join closure exceeded its work budget",
                    cap_name="max_join_work", cap_value=limits.max_join_work)
            b_set, b_gens = items[j]
            if a_set <= b_set or b_set <= a_set:
                continue
            # |<A,B>| >= |AB| = |A||B|/|A n B|; a divisor of n above n/2 is n
            if len(a_set) * len(b_set) > (u.n // 2) * len(a_set & b_set):
                joined = full
            elif len(a_set) >= len(b_set):
                joined = u.closure(b_gens, base=a_set)
            else:
                joined = u.closure(a_gens, base=b_set)
            if joined not in seen:
                if len(seen) >= limits.max_subgroup_count:
                    raise ResourceLimitError(
                        "subgroup family grew past the count cap",
                        cap_name="max_subgroup_count", cap_value=limits.max_subgroup_count)
                gens = a_gens + tuple(g for g in b_gens if g not in a_gens)
                if len(gens) > 4:
                    gens = u.derive_gens(joined)
                seen.add(joined)
                items.append((joined, gens))
        i += 1
    return items


def all_subgroups(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS) -> list[Subgroup]:
    """Every subgroup of G: all cyclic subgroups, then iterated pairwise joins
    to a fixpoint, deduplicated by element set and canonically sorted."""
    cached = G._cache.get("all_subgroups")
    if cached is None:
        cached = tuple(Subgroup(G, s, g) for s, g in _all_subgroup_sets(G, limits))
        G._cache["all_subgroups"] = cached
    return list(cached)


def two_generated_subgroups(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS) -> list[Subgroup]:
    """Deduplicated subgroups generated by at most two elements of G.

    Joining one canonical generator per cyclic subgroup gives exactly the
    subgroups (a, b) over all element pairs."""
    cached = G._cache.get("two_generated")
    if cached is None:
        u = G.universe(limits)
        items = _join_closure(u, list(u.cyclic_subgroups().items()), limits, fixpoint=False)
        sets = sorted({s: g for s, g in items}.items(), key=lambda kv: (len(kv[0]), tuple(sorted(kv[0]))))
        cached = tuple(Subgroup(G, s, g) for s, g in sets)
        G._cache["two_generated"] = cached
    return list(cached)


def maximal_subgroups(G: PermGroup, limits: EngineLimits = DEFAULT_LIMITS) -> list[Subgroup]:
    """Proper subgroups not contained in any larger proper subgroup."""
    proper = [s for s in all_subgroups(G, limits) if s.order < G.order]
    return [s for s in proper if not any(s.indices < t.indices for t in proper)]


# ---------------------------------------------------------------------------
# Sylow and Hall subgroups


def _p_part(n: int, p: int) -> int:
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def _sylow_set(G: PermGroup, p: int, limits: EngineLimits) -> tuple[frozenset[int], tuple[int, ...]]:
    key = ("sylow_set", p)
    cached = G._cache.get(key)
    if cached is not None:
        return cached
    u = G.universe(limits)
    target = _p_part(G.order, p)
    if target == 1:
        result = (frozenset({u.identity}), ())
    else:
        seed = None
        for i in range(u.n):
            o = u.orders[i]
            if o % p == 0:
                seed = i if o == _p_part(o, p) else _power(u, i, o // _p_part(o, p))
                break
        gens = [seed]
        current = u.closure(gens)
        while len(current) < target:
            normal_pool = [i for i in range(u.n)
                           if u.orders[i] == _p_part(u.orders[i], p) and i not in current
                           and all(u.conj(s, i) in current for s in gens)]
            # a p-element normalising the current p-subgroup extends it
            grew = False
            for z in normal_pool:
                bigger = u.closure((z,), base=current)
                if len(bigger) == _p_part(len(bigger), p):
                    gens.append(z)
                    current = bigger
                    grew = True
                    break
            if not grew:
                raise CrossCheckError(f"Sylow {p}-subgroup construction stalled at order {len(current)}")
        result = (current, tuple(gens))
    G._cache[key] = result
    return result


def _power(u: _Universe, i: int, e: int) -> int:
    out = u.identity
    base = i
    while e:
        if e & 1:
            out = u.mul(out, base)
        base = u.mul(base, base)
        e >>= 1
    return out


def sylow(G: PermGroup, p: int, limits: EngineLimits = DEFAULT_LIMITS) -> Subgroup:
    """One Sylow p-subgroup, grown through normalisers from a p-element."""
    if p < 2 or prime_factors(p) != ((p, 1),):
        raise DomainError(f"{p} is not a prime")
    s, gens = _sylow_set(G, p, limits)
    return Subgroup(G, s, gens)


def _conjugate_set_closure(u: _Universe, base_sets: list[frozenset[int]]) -> list[frozenset[int]]:
    out = set(base_sets)
    for s in base_sets:
        lst = sorted(s)
        for g in range(u.n):
            out.add(frozenset(u.conj(x, g) for x in lst))
    return _sorted_sets(out)


def hall_subgroups(G: PermGroup, primes, limits: EngineLimits = DEFAULT_LIMITS) -> list[Subgroup]:
    """All subgroups whose order is the full primes-part of |G| and whose
    index carries none of the given primes.  Possibly empty.

    Search: every such subgroup contains a Sylow subgroup for the prime with
    the heaviest contribution, so close a fixed Sylow subgroup under joins
    with elements of compatible order, keep joins whose size divides the
    target, then spread over conjugates."""
    pset = tuple(sorted(set(primes)))
    for p in pset:
        if p < 2 or prime_factors(p) != ((p, 1),):
            raise DomainError(f"{p} is not a prime")
    key = ("hall", pset)
    cached = G._cache.get(key)
    if cached is not None:
        return list(cached)
    u = G.universe(limits)
    target = 1
    for p, e in prime_factors(G.order):
        if p in pset:
            target *= p**e
    if target == 1:
        result = [Subgroup(G, frozenset({u.identity}))]
    elif target == G.order:
        result = [Subgroup(G, frozenset(range(u.n)), u.gen_idxs(G))]
    else:
        anchor_p = max((p for p in pset if G.order % p == 0), key=lambda p: _p_part(G.order, p))
        p0_set, _ = _sylow_set(G, anchor_p, limits)
        candidates = {p0_set}
        queue = [p0_set]
        pi_elements = [i for (s, g) in u.cyclic_subgroups().items() if g
                       for i in g if target % u.orders[i] == 0]
        while queue:
            c_set = queue.pop(0)
            for x in pi_elements:
                if x in c_set:
                    continue
                joined = u.closure((x,), base=c_set, cap=target)
                if joined is None or target % len(joined) != 0 or joined in candidates:
                    continue
                if len(candidates) >= limits.max_subgroup_count:
                    raise ResourceLimitError(
                        "Hall-subgroup search grew past the count cap",
                        cap_name="max_subgroup_count", cap_value=limits.max_subgroup_count)
                candidates.add(joined)
                queue.append(joined)
        hits = [s for s in candidates if len(s) == target]
        result = [Subgroup(G, s) for s in _conjugate_set_closure(u, hits)]
    G._cache[key] = tuple(result)
    return list(result)


# ---------------------------------------------------------------------------
# cores


def core_series_subgroup(G: PermGroup, primes, limits: EngineLimits = DEFAULT_LIMITS) -> Subgroup:
    """Largest normal subgroup whose order only involves the given primes."""
    pset = frozenset(primes)
    key = ("core", tuple(sorted(pset)))
    cached = G._cache.get(key)
    if cached is not None:
        return cached
    best: frozenset[int] | None = None
    best_gens: tuple[int, ...] = ()
    hits = []
    for s, gens in _normal_subgroup_sets(G, limits):
        if all(p in pset for p, _ in prime_factors(len(s))):
            hits.append(s)
            if best is None or len(s) > len(best):
                best, best_gens = s, gens
    assert best is not None  # the trivial subgroup always qualifies
    for s in hits:
        if not s <= best:
            raise CrossCheckError("normal subgroups with restricted order admit no unique maximum")
    result = Subgroup(G, best, best_gens)
    G._cache[key] = result
    return result
