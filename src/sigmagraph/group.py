"""Permutation-group kernel: generated groups, subgroup search, normal series.

All public values are immutable after construction and every operation is a
pure function of its inputs.  A group's enumeration caps (``EngineLimits``)
are fixed when it is built and held as ``PermGroup.limits``; no function
that reads a group takes caps of its own, and a group built from a group
inherits its caps.  Every value cached on a group, a quotient and a cap
failure included, goes through ``_memo``: it is only ever reused, never
mutated, and a ResourceLimitError is cached as a fresh copy and raised again
on every read, so memoisation is observationally transparent.  A group's
caches hold index sets and generator indices, never a value that
refers back to the group (``Subgroup`` wrappers are made per call), so a
dropped group is freed at once, not by the cycle collector.

Desk-scale design: groups are small enough to enumerate their elements, and
subgroup work runs on the indexed element table of the ambient group
(``_Universe``).  A group is enumerated when it is built, by one
breadth-first walk over its Cayley graph that stops past the element cap;
that walk is the only route to a group's order and elements, so refusing a
group above a cap costs about as much as enumerating one at the cap.  Each
element is kept once, as the bytes of the images the walk found (a degree is
at most ``MAX_DEGREE`` = 256), with its table: the images padded to 256
bytes, so that x·g is one ``bytes.translate`` of x's images through g's
table (S6's 720 tables take about 208 KB); a ``Permutation``, on an image
tuple, is made only for a caller who asks.  The table is read through one
bulk read, ``_Universe.gather``, and one pointwise read,
``_Universe.mul``.  Up to ``_TABLE_LIMIT`` elements it holds rows of the
multiplication table: the rows of the generators and their inverses are made
with the table, and every other row is gathered from held rows along the
Cayley graph on its first read, so a caller pays for the rows it reads (six
cold hawkes and hall graph calls on S6, one table of 720 rows each, gather
about 320 rows in all).  Rows are tuples that share the identity row's int
objects, so a gather neither boxes nor copies an entry; a held row costs 8
bytes per entry, so the whole table, reached when every row is read, takes
about 4 MB for S6 and about 18 MB at the limit.  Above it a gather composes
each entry from images as it reads it, by ``bytes.translate``, at C level
too.  A subgroup is its set of element indices in that table.  Its generator
indices are given, where a search produced them, or derived from the set on
first read (Hall subgroups, normal subgroups, cores); its own PermGroup is
built only when a caller treats it as a group in its own right.  Every
subgroup is generated by ``_Universe.closure``, which extends a subgroup
the caller already holds by new generators, one left coset at a time (Dimino's
algorithm; Butler, Fundamental Algorithms for Permutation Groups, LNCS 559).
Subgroup searches work up to conjugacy: they extend one representative K per
class, by one cyclic subgroup per N_G(K)-orbit, skip a join that an earlier
join of prime index over K already holds, and spread each new subgroup over
its class by gathers on the conjugation rows of G's generators.
``centralizer``, ``normalizer`` and ``is_normal`` compare or gather whole
conjugation rows and coset labels instead of multiplying element by element.
Element orders, inverses and the cyclic subgroups, each named by its least
generator, come from one walk per cyclic subgroup when the table is built,
and the conjugacy classes from one orbit pass per table.
Quotients are read in G itself: the normal subgroups of G/K are the normal
subgroups of G over K, and the largest one whose index over K involves
given primes comes from one pass over G's conjugacy classes
(``_largest_normal_over``); over the trivial floor that is O_pi(G)
(``core_series_subgroup``).  So no library route builds a quotient group,
G's normal lattice or a chief series; ``quotient``, ``normal_subgroups`` and
``chief_series`` remain for callers that want them.  Hall subgroups are
reached from one Sylow subgroup (``sylow``) by joins with Sylow subgroups
for the other primes (``_hall_classes``), which keeps each conjugacy class
as its sorted index sets.
Sylow subgroups and the largest normal subgroup over a floor come from one
greedy pass of joins (``_Universe.grow``); those passes, the Hall search
and the Schmidt pairs keep a join by one rule (``_Universe.join``): it is
refused without a closure when its first generator, or that generator's
product with another generator or a member of the base, has an order that
does not divide the target (Lagrange), and else closed, capped at the
target, and kept when its order divides it.
Enumeration caps are explicit configuration; hitting one raises a
ResourceLimitError naming the cap instead of silently truncating.  The
subgroup lattice's count cap is decided first from a count with no search:
the subgroups over an elementary abelian normal layer, from Gaussian
binomials and the invariant subgroups of the layer (Holt, Eick and O'Brien,
Handbook of Computational Group Theory), a lower bound on the lattice's size.
That count reads G/E in G: a subgroup of it as its preimage, by ``closure``,
its class by ``_conjugates`` and the layer's centre by ``centralizer``.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial, reduce
from itertools import accumulate, chain, compress
from math import gcd
from operator import eq, itemgetter

from .errors import CrossCheckError, DomainError, GroupInputError, ResourceLimitError
from .perm import Permutation, _trusted
from .sigma import _is_int, _is_prime, _p_part, prime_factors


@dataclass(frozen=True)
class EngineLimits:
    """Enumeration caps. Orders are group-order gates; the count cap bounds
    the subgroups a search finds and the work cap the joins it takes up (one
    per normaliser orbit of extensions, closed or skipped as already
    known; one per element of an elementary abelian layer taken up over an
    invariant subgroup by the layer count, joined or skipped; and one per
    pair of prop 1.11's pair scan, commuting or not), as neither is a
    function of the group order alone."""

    max_subgroup_order: int = 500
    max_element_order: int = 5000
    max_subgroup_count: int = 4000
    max_join_work: int = 400_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_int(value):
                raise GroupInputError(f"{f.name} must be an int, got {value!r}")
            if value < 1:
                raise GroupInputError(f"{f.name} must be at least 1, got {value}")


DEFAULT_LIMITS = EngineLimits()

_TABLE_LIMIT = 1500  # hold rows of the multiplication table up to this order
MAX_DEGREE = 256  # an element's images are bytes
_POINTS = bytes(range(MAX_DEGREE))  # the identity; its tail pads an image to a table


class PermGroup:
    """Finite permutation group under fixed enumeration caps, enumerated by a
    breadth-first walk over its Cayley graph from the identity
    (``_cayley_walk``).

    ``limits`` holds the caps; every search on the group reads them from
    there, so a group is decided under the one set of caps it was built
    with, and a group built from it (a subgroup as a group of its own, a
    quotient image) inherits them.  The walk stops once it has found more
    than ``limits.max_element_order`` elements and then raises a
    ResourceLimitError naming max_element_order, so refusing a group above a
    cap costs about as much as enumerating one at the cap.  A degree above
    ``MAX_DEGREE``, past what a byte holds, is refused before the walk,
    naming max_degree.  A walk that completes gives the order and the
    sorted images as bytes, the one element list that ``elements`` (as
    image tuples) and ``universe`` read."""

    __slots__ = ("degree", "generators", "order", "limits", "_images", "_cache")

    def __init__(self, degree: int, generators, limits: EngineLimits = DEFAULT_LIMITS):
        if not _is_int(degree):
            raise GroupInputError(f"degree must be an int, got {degree!r}")
        if degree < 1:
            raise GroupInputError(f"degree must be positive, got {degree}")
        if degree > MAX_DEGREE:
            raise ResourceLimitError(f"degree {degree} is too large", cap_name="max_degree",
                                     cap_value=MAX_DEGREE)
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise GroupInputError(f"generator {g!r} is not a Permutation")
            if g.degree != degree:
                raise GroupInputError(f"generator {g} has degree {g.degree}, expected {degree}")
        if not isinstance(limits, EngineLimits):
            raise GroupInputError(f"limits must be an EngineLimits, got {limits!r}")
        bound = limits.max_element_order
        images = _cayley_walk(degree, gens, bound)
        if images is None:
            raise _element_cap_error(bound)
        self.degree = degree
        self.generators = gens
        self.order = len(images)
        self.limits = limits
        self._images = images
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple."""
        return _memo(self, "elements",
                     lambda: tuple(map(_trusted, map(tuple, self._images))))

    def universe(self) -> "_Universe":
        """The element table."""
        return _memo(self, "universe", lambda: _Universe(self._images, self.generators))


def _cayley_walk(degree: int, generators, bound: int) -> tuple[bytes, ...] | None:
    """The sorted images, as bytes, of the elements of the group the
    generators generate; None once more than bound are found.  A
    breadth-first walk from the identity that multiplies on the right by one
    generator per step: x·g applies x first, so its images are x's read
    through g's table (g's images padded to 256 bytes), one
    ``bytes.translate``.  Byte order is image-tuple order."""
    tables = [bytes(g.images) + _POINTS[degree:] for g in generators]
    ident = _POINTS[:degree]
    seen = {ident}
    walk = [ident]
    for x in walk:
        for t in tables:
            y = x.translate(t)
            if y not in seen:
                seen.add(y)
                walk.append(y)
        if len(walk) > bound:
            return None
    walk.sort()
    return tuple(walk)


def _element_cap_error(bound: int) -> ResourceLimitError:
    """The error for a group of order above bound, found by the walk or
    known beforehand (a zoo entry's order)."""
    return ResourceLimitError(f"group of order above {bound} is too large to enumerate",
                              cap_name="max_element_order", cap_value=bound)


_MISSING = object()


def _memo(G: PermGroup, key, compute):
    """G's value for key, computed on the first call and cached on G.  The
    value may depend on G's caps, which are fixed with G, so the key holds
    none.  A ResourceLimitError that compute raises is cached as well,
    without its traceback (which holds compute's partial work), and every
    later read raises a fresh copy of it.  A hit hashes the key once."""
    cache = G._cache
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        try:
            value = cache[key] = compute()
        except ResourceLimitError as exc:
            cache[key] = exc.fresh()
            raise
    elif isinstance(value, ResourceLimitError):
        raise value.fresh()
    return value


class Subgroup:
    """A subgroup of a fixed parent group, held as its set of element indices
    in the parent's element table (``parent.universe()``).

    ``gens`` are element indices that generate it: the given ones, else a
    small canonical set derived from the index set on first read.  Order,
    elements and containment are read off the index set.  ``group``, the
    subgroup as a ``PermGroup`` in its own right, is built from ``gens`` on
    first use, under the parent's caps, and checked against the index set."""

    __slots__ = ("parent", "indices", "_gens", "_group")

    def __init__(self, parent: PermGroup, indices: frozenset[int], gens=None):
        self.parent = parent
        self.indices = indices
        self._gens = None if gens is None else tuple(gens)
        self._group: PermGroup | None = None

    @property
    def gens(self) -> tuple[int, ...]:
        if self._gens is None:
            self._gens = self.parent.universe().derive_gens(self.indices)
        return self._gens

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def group(self) -> PermGroup:
        if self._group is None:
            images = self.parent.universe().images
            grp = PermGroup(self.parent.degree, [_trusted(tuple(images[i])) for i in self.gens],
                            self.parent.limits)
            if grp.order != self.order:
                raise CrossCheckError("materialised subgroup order disagrees with its index set")
            self._group = grp
        return self._group

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple like ``PermGroup.elements``."""
        images = self.parent.universe().images
        return tuple(_trusted(tuple(images[i])) for i in sorted(self.indices))

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


def _composed(index: dict, tables, at):
    """The gather of positions at along a composed row: for rows[x] =
    images[x], it gives (x·a for a in at), each x·a composed as x's images
    read through a's table (``row.translate``) and looked up in index, all
    at C level."""
    at_tables = [tables[a] for a in at]
    lookup = index.__getitem__
    return lambda row: tuple(map(lookup, map(row.translate, at_tables)))


class _Rows(dict):
    """The rows of a multiplication table, each made on its first read and
    kept; ``_Universe`` sets the attributes.

    ``links`` holds (row(k⁻¹), row(k)) for each k among the generators and
    their inverses, whose rows are held from the start, and ``tree[y]`` the
    link of a breadth-first tree over the Cayley graph from the identity:
    y = k·p with p = row(k⁻¹)[y] one step nearer the root.  A read of row x
    steps back from x until some y = k·p has p's row held, trying every
    link at each step and else going up the tree; then row(y) is row(k)
    read at the positions row(p) (associativity), one C-level gather, and
    so on for each step back down to x.  Every row on the way is kept, and
    the walk and the gathers are loops, so a long chain cannot overflow the
    stack."""

    __slots__ = ("links", "tree")

    def __missing__(self, x: int):
        links = self.links
        below = []  # (z, row(k)) with z = k·(the element after z), from x up
        y = x
        while True:
            for k_inv, k in links:
                if (p := k_inv[y]) in self:  # y = k·p, with p's row held
                    row = self[y] = itemgetter(*self[p])(k)  # n >= 2 here
                    for z, k in reversed(below):
                        row = self[z] = itemgetter(*row)(k)
                    return row
            k_inv, k = self.tree[y]
            below.append((y, k))
            y = k_inv[y]


class _Universe:
    """Index arithmetic over one group's full, canonically sorted list of
    images as bytes (``images``; ``index`` maps each to its position), and
    their tables (``tables``: the images padded to 256 bytes), so that
    ``images[x].translate(tables[a])`` is the images of x·a.

    ``rows[x]`` is row x of the multiplication table, read through
    ``gather``: ``gather(at)(rows[x])`` is (x·a for a in at), x first, then
    a, one C-level gather with a table or without; ``mul(x, y)`` is one
    entry.  ``gather`` is chosen once per table, so a read costs no more
    than the gather itself.  Up to ``_TABLE_LIMIT`` elements (``table``),
    ``rows`` is a ``_Rows`` mapping that makes each row on its first read,
    ``rows[x]`` is a tuple, ``rows[x][y]`` the index of x·y, and a gather is
    one ``itemgetter``.  Only the rows of the generators are composed from
    images (g·y is g's images read through y's table), and those of their
    inverses inverted from them; every other row is gathered on first read
    from a held row one step nearer along the
    Cayley graph, since row(g·p) = row(g) read at the positions row(p)
    (associativity), one C-level gather per row.  A walk over indices along
    the rows of the generators and their inverses, made with the table,
    checks that the generators reach every element and gives the tree that
    the reads follow.  A row gathered from the identity row holds that row's
    int objects (the values of ``index``), so the gather boxes nothing and
    builds nothing besides the tuple.  Above the limit ``rows`` is
    ``images``, and a gather composes each entry from images and tables
    (``_composed``), still at C level: no Python call per entry.
    Element orders, inverses and the cyclic subgroups come from one walk per
    cyclic subgroup from its least generator, composing images through its
    table (the walk reads no row); that generator names the subgroup, and
    no element set is built: ``canon[x]`` is the least generator of <x>, and
    ``cyclic`` lists those of the nontrivial ones in increasing order.
    Conjugation is two gathers through the inverses, whole rows
    (``conjugation_rows``) or at some positions (``conjugates``).

    ``gens`` are the indices of the generators the table was built from
    (no identity, no repeats); ``conj_rows`` are conjugation by them, built
    with the table, and ``conjugacy_classes()`` their orbits, computed on
    the first call."""

    __slots__ = ("images", "index", "tables", "n", "identity", "table", "rows", "gather",
                 "inv_arr", "orders", "canon", "cyclic", "gens", "conj_rows", "_classes")

    def __init__(self, images: tuple[bytes, ...], generators):
        self._classes = None
        self.images = images
        self.index = index = {im: i for i, im in enumerate(images)}
        self.tables = tables = [im + _POINTS[len(im):] for im in images]
        self.n = n = len(images)
        self.identity = ident = index[_POINTS[:len(images[0])]]
        self.gens = tuple(g for g in dict.fromkeys(index[bytes(p.images)] for p in generators)
                          if g != ident)
        self.table = n <= _TABLE_LIMIT
        self.gather = _getter if self.table else partial(_composed, index, tables)
        # one walk per cyclic subgroup, from its least generator i, composing
        # images: i^j with gcd(j, k) = 1 generates <i> too, so it has order
        # k, inverse i^(k-j) and canon i; every element generates one walked
        # subgroup
        self.orders = orders = array("l", [1]) * n
        self.inv_arr = inv = array("l", [ident]) * n
        self.canon = canon = [-1] * n
        canon[ident] = ident
        self.cyclic = cyclic = []
        for i in range(n):
            if canon[i] < 0:
                times_i = tables[i]
                powers = [ident]
                x, im = i, images[i]
                while x != ident:
                    powers.append(x)
                    im = im.translate(times_i)
                    x = index[im]
                k = len(powers)
                for j in range(1, k):
                    if gcd(j, k) == 1:
                        x = powers[j]
                        orders[x], inv[x], canon[x] = k, powers[k - j], i
                cyclic.append(i)
        if not self.table:
            self.rows = images
        else:
            # row(g)[y] = g·y, composed from images; row(g⁻¹) is its inverse
            # permutation (a plain loop: faster than composing it or sorting);
            # every other row is gathered from these on first read
            ident_row = tuple(index.values())
            lookup = index.__getitem__
            held = {g: tuple(map(lookup, map(images[g].translate, tables))) for g in self.gens}
            for g in self.gens:
                if inv[g] not in held:
                    back = [0] * n
                    for x, y in zip(ident_row, held[g]):
                        back[y] = x
                    held[inv[g]] = tuple(back)
            links = [(held[inv[k]], held[k]) for k in held]
            tree: list = [None] * n
            tree[ident] = ()  # the root, whose row is held
            walk = [ident]
            for x in walk:
                for link in links:
                    y = link[1][x]
                    if tree[y] is None:
                        tree[y] = link
                        walk.append(y)
            if len(walk) != n:
                raise CrossCheckError(
                    f"the generators reach {len(walk)} of the {n} elements of the table")
            self.rows = rows = _Rows(held)
            rows[ident] = ident_row
            rows.links, rows.tree = links, tree
        self.conj_rows = self.conjugation_rows(self.gens)

    def mul(self, i: int, j: int) -> int:
        row = self.rows[i]
        return row[j] if self.table else self.index[row.translate(self.tables[j])]

    def idx_of(self, p: Permutation) -> int:
        try:
            return self.index[bytes(p.images)]
        except (KeyError, ValueError):  # ValueError: a point past a byte
            raise DomainError(f"element {p} lies outside the ambient group") from None

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
        subgroup with more than half the elements is the whole group.  Every
        read is a ``gather``, with a table or without."""
        n = self.n
        rows = self.rows
        inv = self.inv_arr
        limit = n if cap is None else min(cap, n)
        seen = set(base) if base else {self.identity}
        if len(seen) > limit:
            return None
        for s in gen_idxs:
            if s in seen:
                continue
            h = tuple(seen)
            coset = self.gather(h)
            step = self.gather(_getter(coset(rows[inv[s]]))(inv))  # H·s = (s⁻¹·H)⁻¹
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

    def join(self, gens, target: int,
             base: frozenset[int] | None = None) -> frozenset[int] | None:
        """<base, gens> (base trivial by default) when its order divides
        target, else None.  First x = gens[0] is tested: when x or some x·a,
        for a among gens[1:] and then base, has an order that does not
        divide target, no subgroup holding them has an order dividing target
        (Lagrange), and the join is refused without a closure.  The products
        are read off x's row when it is held, else composed from images as
        in ``_composed``, so the test builds no row; both reads are lazy, at
        C level, and stop at the first product that refutes.  Only then is
        the join closed, capped at target, and kept when its order divides
        target."""
        x, orders = gens[0], self.orders
        if target % orders[x]:
            return None
        at = chain(gens[1:], base or ())
        row = self.rows.get(x) if self.table else None  # get: no row is made
        if row is None:
            products = map(self.index.__getitem__,
                           map(self.images[x].translate, map(self.tables.__getitem__, at)))
        else:
            products = map(row.__getitem__, at)
        if any(map(target.__mod__, map(orders.__getitem__, products))):
            return None
        s = self.closure(gens, base=base, cap=target)
        return None if s is None or target % len(s) else s

    def grow(self, candidates, target: int, base: frozenset[int] | None = None
             ) -> tuple[frozenset[int], list[tuple[int, ...]]]:
        """One greedy pass of joins from base (trivial by default) towards a
        subgroup of order target.  Each candidate is a tuple of element
        indices; one whose first element lies outside the subgroup so far
        is joined to it (``join``), and a kept join is the new subgroup so
        far.  Stops at target elements; returns the subgroup and the kept
        candidates."""
        cur = frozenset({self.identity}) if base is None else base
        kept = []
        for c in candidates:
            if len(cur) == target:
                break
            if c[0] not in cur and (joined := self.join(c, target, cur)) is not None:
                cur = joined
                kept.append(c)
        return cur, kept

    def derive_gens(self, idx_set: frozenset[int]) -> tuple[int, ...]:
        """Small deterministic generating sequence for a known subgroup set:
        each generator is the least index outside the subgroup the earlier
        ones generate.  A join inside the set divides its order, so it is
        closed (capped at the set's order) without a ``join`` test."""
        cur, gens = frozenset({self.identity}), []
        for i in sorted(idx_set):
            if i not in cur:
                cur = self.closure((i,), base=cur, cap=len(idx_set))
                gens.append(i)
        return tuple(gens)

    def conjugation_rows(self, by) -> tuple[tuple[int, ...], ...]:
        """For each g of ``by``, the row i -> g⁻¹·i·g: two C-level gathers.
        Row g⁻¹ read at the inverses is f: i -> g⁻¹·i⁻¹ (``gather``), and f
        read at f is g⁻¹·(g⁻¹·i⁻¹)⁻¹ = g⁻¹·i·g (a plain tuple gather)."""
        inv, rows = self.inv_arr, self.rows
        at_inverses = self.gather(inv)
        fs = (at_inverses(rows[inv[g]]) for g in by)
        return tuple(_getter(f)(f) for f in fs)

    def conjugates(self, g: int, at) -> tuple[int, ...]:
        """(g⁻¹·a·g for a in at): row g⁻¹ gathered at the inverses of at
        (g⁻¹·a⁻¹), then at the inverses of those (a·g)."""
        inv, row = self.inv_arr, self.rows[self.inv_arr[g]]
        left = self.gather(_getter(at)(inv))(row)
        return self.gather(_getter(left)(inv))(row)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes, as sorted index tuples ordered by smallest
        member: orbits of the conjugation rows, grown a frontier at a time,
        computed on the first call and cached."""
        if self._classes is None:
            rows = self.conj_rows
            seen: set[int] = set()
            classes = []
            for start in range(self.n):
                if start in seen:
                    continue
                orbit = frontier = {start}
                while frontier:
                    frontier = set().union(*(map(row.__getitem__, frontier) for row in rows))
                    frontier -= orbit
                    orbit |= frontier
                seen |= orbit
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes


# ---------------------------------------------------------------------------
# helpers


def _sorted_sets(sets) -> list[frozenset[int]]:
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def _require_subgroup_of(G: PermGroup, S: Subgroup, name: str) -> None:
    if S.parent is not G:
        raise DomainError(f"{name} is not a subgroup of the given group")


def _product_order(x: Subgroup, y: Subgroup) -> int:
    """|XY| = |X| |Y| / |X ∩ Y|, for subgroups of one group."""
    return x.order * y.order // len(x.indices & y.indices)


# ---------------------------------------------------------------------------
# centralisers, normalisers


def _coset_labels(u: _Universe, s_set: frozenset[int]) -> tuple[list[int], list[int]]:
    """labels[x] names the left coset x·S: its least element; and those
    least elements, in order."""
    rows = u.rows
    coset = u.gather(tuple(s_set))
    labels = [-1] * u.n
    reps = []
    for x in range(u.n):
        if labels[x] < 0:
            reps.append(x)
            for y in coset(rows[x]):
                labels[y] = x
    return labels, reps


def _where_equal(u: _Universe, pairs) -> frozenset[int]:
    """The x at which every (a, b) of pairs agrees, each a sequence over x."""
    keep = set(range(u.n))
    for a, b in pairs:
        keep.intersection_update(compress(range(u.n), map(eq, a, b)))
    return frozenset(keep)


def _normalised_by(rows, s_set: frozenset[int], s_gens) -> bool:
    """True when every conjugation row maps each of s_gens into s_set: for
    a subgroup s_set that s_gens generate, when each element the rows
    conjugate by normalises it."""
    return all(row[s] in s_set for row in rows for s in s_gens)


def centralizer(G: PermGroup, S: Subgroup) -> Subgroup:
    """Elements of G commuting with every element of S: x commutes with s
    iff the conjugation row of s fixes x, for each generator s."""
    _require_subgroup_of(G, S, "S")
    u = G.universe()
    return Subgroup(G, _where_equal(u, ((row, range(u.n))
                                        for row in u.conjugation_rows(S.gens))))


def normalizer(G: PermGroup, S: Subgroup) -> Subgroup:
    """Elements of G conjugating S to itself: x normalises S iff s·x lies in
    x·S for each generator s of S.  The normaliser is a union of left cosets
    r·S, and s·r·h lies in (s·r)·S, so only the least member r of each coset
    is tested: row s gathered at those r, read through the coset labels,
    must give r back.  The subgroup searches walk orbits on it."""
    _require_subgroup_of(G, S, "S")
    u = G.universe()
    labels, reps = _coset_labels(u, S.indices)
    keep = set(reps)
    for s in S.gens:
        keep.intersection_update(
            compress(reps, map(eq, map(labels.__getitem__, u.gather(reps)(u.rows[s])), reps)))
    return Subgroup(G, frozenset(compress(range(u.n), map(keep.__contains__, labels))))


def is_normal(G: PermGroup, S: Subgroup) -> bool:
    """True when S is normalised by every generator of G."""
    _require_subgroup_of(G, S, "S")
    return _normalised_by(G.universe().conj_rows, S.indices, S.gens)


def centralizer_of_factor(G: PermGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """Elements x of G with [x, H] inside K, for K normal in H: [x, h] =
    x⁻¹·x^h lies in K iff x^h lies in x·K, so the conjugation row of h and
    the identity are compared through K's left coset labels.  No library
    route calls it: sigma-nilpotency reads pi-closures; the tests use it for
    the chief-factor routes."""
    _require_subgroup_of(G, H, "H")
    _require_subgroup_of(G, K, "K")
    u = G.universe()
    k_set = K.indices
    if not k_set <= H.indices:
        raise DomainError("K is not contained in H")
    rows = u.conjugation_rows(H.gens)
    if not _normalised_by(rows, k_set, K.gens):
        raise DomainError("K is not normal in H")
    labels, _ = _coset_labels(u, k_set)
    return Subgroup(G, _where_equal(u, ((map(labels.__getitem__, row), labels)
                                        for row in rows)))


# ---------------------------------------------------------------------------
# normal subgroups and chief series


def _normal_subgroup_sets(G: PermGroup) -> list[frozenset[int]]:
    def compute():
        u = G.universe()
        classes = u.conjugacy_classes()
        trivial = frozenset({u.identity})
        found = {trivial}
        queue = [trivial]  # grows while read, so each new one is joined in turn
        for n_set in queue:
            for cls in classes:
                if cls[0] == u.identity or set(cls) <= n_set:
                    continue
                m_set = u.closure(cls, base=n_set)
                if m_set not in found:
                    found.add(m_set)
                    queue.append(m_set)
        return _sorted_sets(found)
    return _memo(G, "normal_sets", compute)


def normal_subgroups(G: PermGroup) -> list[Subgroup]:
    """Every normal subgroup of G, sorted by order then element list.

    A normal subgroup is a join of conjugacy classes, so the enumeration
    joins each one found with each class until no new one appears.  No
    library route calls it; the tests read it as an oracle."""
    return [Subgroup(G, s) for s in _normal_subgroup_sets(G)]


def chief_series(G: PermGroup) -> tuple[Subgroup, ...]:
    """The terms of one chief series, ascending from the trivial subgroup to
    G, built by repeatedly taking the canonically smallest minimal normal
    subgroup above the current term.  No library route calls it:
    sigma-solubility walks up the normal subgroups one class at a time."""
    if G.is_trivial:
        raise DomainError("the trivial group has no chief series")
    normal_sets = _normal_subgroup_sets(G)

    def compute():
        chain = [normal_sets[0]]
        full = normal_sets[-1]
        while chain[-1] != full:
            cur = chain[-1]
            # the first normal set above cur is minimal over it: a normal
            # subgroup strictly between would be smaller and sort earlier
            chain.append(next(s for s in normal_sets if cur < s))
        return chain
    chain = _memo(G, "chief_series", compute)
    return tuple(Subgroup(G, s) for s in chain)


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
            return self._proj[bytes(p.images)]
        except (KeyError, ValueError):  # ValueError: a point past a byte
            raise DomainError(f"element {p} lies outside the quotient source") from None

    def preimage_indices(self, sub: Subgroup) -> frozenset[int]:
        """Indices in the source's element table of the elements that project
        into the given subgroup of the image."""
        if sub.parent is not self.image:
            raise DomainError("the subgroup does not lie in the quotient image")
        u, v = self.source.universe(), self.image.universe()
        return frozenset(i for i in range(u.n)
                         if v.idx_of(self._proj[u.images[i]]) in sub.indices)


def quotient(G: PermGroup, N: Subgroup) -> QuotientGroup:
    """Quotient G/N via the faithful action on the cosets of N, as a group
    of its own.  No library route calls it: the predicates read G/N among
    G's normal subgroups over N (``_largest_normal_over``); the tests use it
    as a second route.  Cosets are numbered by their least elements, in
    order.  An index above ``MAX_DEGREE`` is refused, naming max_degree."""
    if not is_normal(G, N):
        raise DomainError("cannot form the quotient: subgroup is not normal")
    u = G.universe()
    if N.order == 1:  # the image is G itself, which G's own cache must not hold
        return QuotientGroup(G, N, G, {im: _trusted(tuple(im)) for im in u.images})

    def compute():
        labels, reps = _coset_labels(u, N.indices)
        rank = {r: c for c, r in enumerate(reps)}
        coset_of = [rank[x] for x in labels]
        proj = {u.images[x]: Permutation(tuple(coset_of[u.mul(r, x)] for r in reps))
                for x in range(u.n)}
        image = PermGroup(len(reps), tuple(proj[u.images[g]] for g in u.gens), G.limits)
        if image.order * N.order != G.order:
            raise CrossCheckError("coset action order disagrees with the index")
        for a in G.generators:
            for b in G.generators:
                if proj[bytes((a * b).images)] != proj[bytes(a.images)] * proj[bytes(b.images)]:
                    raise CrossCheckError("coset projection is not a homomorphism on generators")
        return image, proj
    return QuotientGroup(G, N, *_memo(G, ("quotient", N.indices), compute))


# ---------------------------------------------------------------------------
# subgroup enumeration


def _conjugates(u: _Universe, found: dict) -> dict:
    """The given subgroups, {element set: generators}, and all their conjugates
    with conjugated generators: one gather per (class member, generator of
    G) on the conjugation rows."""
    rows = u.conj_rows
    out = dict(found)
    queue = list(out)
    for s in queue:
        for row in rows:
            t = frozenset(map(row.__getitem__, s))
            if t not in out:
                out[t] = tuple(map(row.__getitem__, out[s]))
                queue.append(t)
    return out


def _new_classes(u: _Universe, found: dict, pairs, limits: EngineLimits, work: int = 0):
    """Close each (K, gens) of pairs to <K, gens>; add each subgroup not yet
    found, with its conjugacy class, to found and yield it.  Raises past
    max_join_work pairs, work of them already spent, or max_subgroup_count
    subgroups.

    A join <K, y> is not closed when y lies in an earlier join H over the
    same K with |H : K| prime: for y outside K, K < <K, y> <= H, so
    <K, y> = H by Lagrange (and for y in K it is K), already found.  Only
    the union of such joins over the K of the previous pair is held; the
    lattice gives the pairs of one K together, and a new K starts a new
    union.  A skipped pair still counts toward max_join_work, so the
    subgroups, their generators and the pair at which a cap fires are those
    of closing every pair."""
    held, known = None, set()  # known: the prime-index joins over K = held
    for work, (k, gens) in enumerate(pairs, work):
        if work == limits.max_join_work:
            raise _join_work_error(limits)
        if k is not held:
            held, known = k, set()
        elif len(gens) == 1 and gens[0] in known:
            continue
        h = u.closure(gens, base=k)
        factors = prime_factors(len(h) // len(k))
        if len(factors) == 1 and factors[0][1] == 1:
            known |= h
        if h not in found:
            h_gens = found[k] + gens
            cls = _conjugates(u, {h: h_gens if len(h_gens) <= 4 else u.derive_gens(h)})
            if len(found) + len(cls) > limits.max_subgroup_count:
                raise _count_cap_error(limits)
            found.update(cls)
            yield h


def _join_work_error(limits: EngineLimits) -> ResourceLimitError:
    """The subgroup search's join-work error, whether the search or the
    layer count below spends the last of max_join_work."""
    return ResourceLimitError("subgroup search exceeded its closure budget",
                              cap_name="max_join_work", cap_value=limits.max_join_work)


def _count_cap_error(limits: EngineLimits) -> ResourceLimitError:
    """The subgroup search's count-cap error, whether the search or the
    layer count below decides it."""
    return ResourceLimitError("subgroup family grew past the count cap",
                              cap_name="max_subgroup_count", cap_value=limits.max_subgroup_count)


def _orbit_firsts(G: PermGroup, K: Subgroup, candidates):
    """The candidates, least generators of cyclic subgroups as listed in
    ``_Universe.cyclic``, that come first in their N_G(K)-orbit of them.

    For x in N_G(K), <K, y>^x = <K, y^x>: the later members of an orbit only
    join K to conjugates of the first one's join.  The candidates must be a
    union of orbits; each orbit is walked on the conjugation rows of G's
    generators when K is normal (``is_normal``), else on those of the
    generators of ``normalizer(G, K)``."""
    u = G.universe()
    rows = u.conj_rows if is_normal(G, K) else u.conjugation_rows(normalizer(G, K).gens)
    canon = u.canon
    seen: set[int] = set()
    for y in candidates:
        if y in seen:
            continue
        yield y
        seen.add(y)
        orbit = [y]
        for z in orbit:
            for row in rows:
                w = canon[row[z]]
                if w not in seen:
                    seen.add(w)
                    orbit.append(w)


def _gaussian_binomials(p: int, d: int) -> list[int]:
    """[d k]_p for k = 0, ..., d: the number of subgroups of order p^k of an
    elementary abelian group of order p^d, by the q-Pascal rule
    [m k] = [m-1 k-1] + p^k [m-1 k]."""
    row = [1]
    for _ in range(d):
        row = [1] + [row[k - 1] + p ** k * row[k] for k in range(1, len(row))] + [1]
    return row


def _layer_ceiling(order: int, p: int, d: int) -> int:
    """A bound on ``_layer_count`` for every elementary abelian normal
    subgroup E of order p^d of every group of the given order, from the two
    orders alone: S0(d) + (order/p^d - 1) T(d).  E has S0(d) = sum_k
    [d k]_p subgroups; G/E has at most order/p^d - 1 subgroups of prime
    order; and each of those adds, for each of the at most [d k]_p subgroups
    K of order p^k, at most |E : K| = p^(d-k), which sum to T(d)."""
    row = _gaussian_binomials(p, d)
    return sum(row) + (order // p ** d - 1) * sum(c * p ** (d - k) for k, c in enumerate(row))


def _elementary_layer(G: PermGroup, p: int) -> frozenset[int]:
    """E = Omega_1(Z(O_p(G))): the elements of order 1 or p in the centre of
    O_p(G), G's largest normal p-subgroup (``core_series_subgroup``).  E is
    elementary abelian and characteristic in O_p(G), so normal in G."""
    u = G.universe()
    o_p = core_series_subgroup(G, (p,))
    centre = o_p.indices & centralizer(G, o_p).indices
    return frozenset(z for z in centre if p % u.orders[z] == 0)


def _layer_count(G: PermGroup, e_set: frozenset[int], stop: int, work: int = 0) -> tuple[int, int]:
    """The number of subgroups H of G with |HE : E| equal to 1 or a prime,
    for E = e_set an elementary abelian normal p-subgroup, with no subgroup
    search; once the count passes stop, the count so far.  With it, the
    join work spent, from work on: each t of E outside K taken up for a
    join over K counts, joined or skipped, charged for all of K at once,
    and past max_join_work the search's join-work error is raised.

    The H inside E are E's subgroups, a sum of Gaussian binomials.  Any
    other H has HE/E = <xE> of prime order q, and K = H ∩ E is normalised by
    H and by E (abelian), so by HE: K is x-invariant.  For y in H ∩ xE,
    H = K<y>, y^q lies in K, and H ∩ xE is the coset Ky.  Conversely, for an
    x-invariant K, each coset Ky in xE with y^q in K gives one such H, with
    K<y> ∩ E = K since y^j lies in x^jE, outside E, for 0 < j < q.  So <xE>
    adds #{y in xE : y^q in K} / |K| for each x-invariant K.  Conjugate
    <xE> add the same, so one per G-class is counted, times the class
    length.  G/E is read in G: <xE> as its preimage <x>E (``closure`` over
    E) and its class as that preimage's conjugates (``_conjugates``), for x
    the least coset representative outside E and the classes counted so
    far; where |<xE>| = m is not prime, the other generators x^jE of <xE>,
    gcd(j, m) = 1, are dropped with it.  The x-invariant K are walked from
    the trivial one by joins of K with the x-orbit of some t in E,
    K<t, t^x, ...> as E is abelian.  A join takes the orbit's members w in
    turn, with no closure: E has exponent p, so <J, w> is the union of the
    cosets w^cJ for c < p.  A t in sK, for s in an orbit already joined to
    K, gives the same join, and a t in a join of prime index over K gives
    that join, so neither is joined."""
    u = G.universe()
    mul, identity = u.mul, u.identity
    p, d = (prime_factors(len(e_set)) or ((1, 0),))[0]  # the trivial E has d = 0
    count = sum(_gaussian_binomials(p, d))
    e_list = sorted(e_set)
    trivial = frozenset({identity})
    _, reps = _coset_labels(u, e_set)
    covered = set(e_set)  # E and the preimages of the classes counted so far
    for x in reps:
        if x in covered:
            continue
        h = u.closure((x,), base=e_set)  # <x>E, the preimage of <xE>
        q = len(h) // len(e_set)
        if prime_factors(q) != ((q, 1),):
            # the other generators x^jE of <xE> have the same preimage
            y = x
            for j in range(2, q):
                y = mul(x, y)
                if gcd(j, q) == 1:
                    covered.update(u.gather(e_list)(u.rows[y]))
            continue
        cls = _conjugates(u, {h: ()})
        covered.update(*cls)
        hits = Counter()  # y^q for each y in xE
        for y in u.gather(e_list)(u.rows[x]):
            z = y
            for _ in range(q - 1):
                z = mul(y, z)
            hits[z] += 1
        conj = dict(zip(e_list, u.conjugates(x, e_list)))
        found = {trivial}
        queue = [trivial]  # grows while read, so each x-invariant K is joined in turn
        for k in queue:
            share, rest = divmod(sum(map(hits.__getitem__, k)), len(k))
            if rest:
                raise CrossCheckError("a coset of an invariant subgroup is split by its q-th powers")
            count += len(cls) * share
            if count > stop:
                return count, work
            work += len(e_list) - len(k)  # every t of E outside K
            if work > G.limits.max_join_work:
                raise _join_work_error(G.limits)
            skip = set(k)
            coset = u.gather(tuple(k))
            for t in e_list:
                if t in skip:
                    continue
                orbit = [t]
                while (w := conj[orbit[-1]]) != t:
                    orbit.append(w)
                j = set(k)  # <J, w> = J ∪ wJ ∪ ... ∪ w^(p-1)J: E is abelian of exponent p
                for w in orbit:
                    if w not in j:
                        layer = tuple(j)
                        for _ in range(p - 1):
                            layer = u.gather(layer)(u.rows[w])
                            j.update(layer)
                j = frozenset(j)
                if len(j) == p * len(k):
                    skip |= j
                else:
                    for w in orbit:
                        skip.update(coset(u.rows[w]))
                if j not in found:
                    found.add(j)
                    queue.append(j)
    return count, work


def _refuse_past_the_count_cap(G: PermGroup) -> int:
    """Raise the subgroup search's count-cap error when, for some prime p,
    the ``_layer_count`` of E = ``_elementary_layer(G, p)``, a lower bound on
    G's subgroup count, passes max_subgroup_count; otherwise return the join
    work the counts spent, which the search goes on from, so max_join_work
    bounds the counts and the search together.  The count is skipped where
    its ``_layer_ceiling`` is within the cap: a prime is skipped unread when
    no p^d dividing |G| has a ceiling past the cap, so a group whose order
    admits no layer past the cap computes nothing, and a layer is skipped
    when its own order's ceiling is within the cap."""
    cap = G.limits.max_subgroup_count
    work = 0
    for p, e in prime_factors(G.order):
        ceilings = {p ** d: _layer_ceiling(G.order, p, d) for d in range(e + 1)}
        if max(ceilings.values()) > cap:
            e_set = _elementary_layer(G, p)
            if ceilings[len(e_set)] > cap:
                count, work = _layer_count(G, e_set, cap, work)
                if count > cap:
                    raise _count_cap_error(G.limits)
    return work


def _all_subgroup_sets(G: PermGroup) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    cap = G.limits.max_subgroup_order
    if G.order > cap:
        raise ResourceLimitError(
            f"group of order {G.order} is too large for subgroup enumeration",
            cap_name="max_subgroup_order", cap_value=cap)

    def compute():
        work = _refuse_past_the_count_cap(G)
        u = G.universe()
        steps = []  # (y, y^p) for one generator y of each cyclic p-subgroup, p prime
        for y in u.cyclic:
            factors = prime_factors(u.orders[y])
            if len(factors) == 1:  # y^p: p - 1 steps along row y
                steps.append((y, reduce(lambda x, _: u.mul(y, x), range(factors[0][0] - 1), y)))
        trivial = frozenset({u.identity})
        found = {trivial: ()}
        reps = [trivial]  # grows while pairs is read, so each new class is extended in turn
        pairs = ((k, (y,)) for k in reps
                 for y in _orbit_firsts(G, Subgroup(G, k, found[k]),
                                        (y for y, yp in steps if y not in k and yp in k)))
        for h in _new_classes(u, found, pairs, G.limits, work):
            reps.append(h)
        return [(s, found[s]) for s in _sorted_sets(found)]
    return _memo(G, "all_subgroup_sets", compute)


def all_subgroups(G: PermGroup, limits: EngineLimits | None = None) -> list[Subgroup]:
    """Every subgroup of G, sorted by order then element list.

    Cyclic extension up to conjugacy (Neubüser 1960; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory): from the trivial group, each
    class representative K is joined with every cyclic p-subgroup <y>, p
    prime, with y outside K and y^p in K; a new subgroup is spread over its
    class and extended in turn.  This is complete: H > 1 is generated by its
    elements of prime-power order, so for M maximal in H one of them, z, lies
    outside M; the last power y of z outside M has y^p in M, and
    H = <M, y>.  For x in N_G(K), <K, y>^x = <K, y^x>, so only the first <y>
    of each N_G(K)-orbit is closed (``_orbit_firsts``): the others give
    conjugates already found.  A <y> inside an earlier join of prime index
    over K is not closed either: that join is <K, y> (``_new_classes``).
    The subgroups, their generators and the point where a cap fires are
    those of closing every <y>.  max_subgroup_order gates G;
    max_subgroup_count caps the subgroups found (the sum of the class
    lengths), max_join_work the joins taken up, skipped ones included.
    The count cap can be decided without the search: when the subgroups
    counted over an elementary abelian normal layer already pass it
    (``_refuse_past_the_count_cap``), the search's own error is raised
    before it closes anything.  That count's joins are charged to
    max_join_work too, and the search goes on from them.  The caps are G's
    own; ``limits`` is accepted only when it equals them."""
    # perfbench/workloads.py passes DEFAULT_LIMITS; ROADMAP item 1 drops that
    # argument there, and then this parameter
    _refuse_other_limits(G, limits)
    return [Subgroup(G, s, g) for s, g in _all_subgroup_sets(G)]


def _refuse_other_limits(G: PermGroup, limits: EngineLimits | None) -> None:
    """Refuse caps other than G's own: a group is searched under the caps it
    was built with."""
    if limits is not None and limits != G.limits:
        raise DomainError("a group is searched under the caps it was built with, "
                          "not under other limits")


def two_generated_subgroups(G: PermGroup) -> list[Subgroup]:
    """Every subgroup <a, b> of G, sorted by order then element list.

    Since <a, b>^g = <a^g, b^g>, one cyclic <a> per conjugacy class is
    joined with one cyclic <b> per N_G(<a>)-orbit (for x in N_G(<a>),
    <a, b>^x = <a, b^x>), and each new join is spread over its class.  The
    count and closure caps apply as in all_subgroups.  No library route
    calls it; the tests use it as a pool of subgroups."""
    def compute():
        u = G.universe()
        found: dict[frozenset[int], tuple[int, ...]] = {frozenset({u.identity}): ()}
        set_of, reps = {}, []  # <b> for each b of u.cyclic; one <b> per class
        for b in u.cyclic:  # <b> is b's powers, walked along row b
            b_set = set_of[b] = frozenset(accumulate(
                range(u.orders[b] - 1), lambda x, _: u.mul(b, x), initial=b))
            if b_set not in found:
                reps.append(b_set)
                found.update(_conjugates(u, {b_set: (b,)}))
        pairs = ((a, (b,)) if len(a) >= len(set_of[b]) else (set_of[b], found[a])
                 for a in reps
                 for b in _orbit_firsts(G, Subgroup(G, a, found[a]),
                                        (b for b, b_set in set_of.items()
                                         if not (a <= b_set or b_set <= a))))
        for _ in _new_classes(u, found, pairs, G.limits):
            pass  # one pass: a new join is not joined again
        return [(s, found[s]) for s in _sorted_sets(found)]
    return [Subgroup(G, s, g) for s, g in _memo(G, "two_generated", compute)]


def maximal_subgroups(G: PermGroup) -> list[Subgroup]:
    """Proper subgroups not contained in any larger proper subgroup, sorted
    like the lattice they are read from."""
    def compute():
        proper = [s for s in all_subgroups(G) if s.order < G.order]
        return [(s.indices, s.gens) for s in proper
                if not any(s.indices < t.indices for t in proper)]
    return [Subgroup(G, s, g) for s, g in _memo(G, "maximal", compute)]


# ---------------------------------------------------------------------------
# Sylow and Hall subgroups


def sylow(G: PermGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup and the generators it was joined from, kept on
    G: one greedy pass of joins (``_Universe.join``) over the p-elements in
    index order towards the p-part of |G| (``_Universe.grow``).  One pass is
    enough: if the result P were short of the p-part, N_G(P)
    would hold a p-element z outside P, and <P, z> would be a p-group; then
    so would <P', z> for the smaller subgroup P' held at z's turn, and z
    would have joined.  A p above max_prime raises ResourceLimitError."""
    if not _is_prime(p):
        raise DomainError(f"{p} is not a prime")

    def compute():
        u = G.universe()
        target = _p_part(G.order, (p,))
        current, kept = u.grow(((z,) for z in range(u.n) if target % u.orders[z] == 0), target)
        if len(current) != target:
            raise CrossCheckError(f"Sylow {p}-subgroup construction stalled at order {len(current)}")
        return current, tuple(z for z, in kept)
    return Subgroup(G, *_memo(G, ("sylow_set", p), compute))


def _hall_classes(G: PermGroup, primes) -> list[list[frozenset[int]]]:
    """The Hall subgroups for the given primes by conjugacy class: each
    class as its element sets in canonical order, the first of which is the
    class representative.

    Search: a Hall subgroup H for the primes holds a Sylow q-subgroup of G
    for each q among them, and some conjugate of H holds the fixed Sylow
    subgroup P of the prime with the heaviest contribution (Sylow's
    theorem).  So H is reached from P by joins with Sylow subgroups of G,
    one at a time, each inside H.  Each candidate is joined with every
    conjugate of the fixed Sylow q-subgroup for each q whose part it lacks,
    towards the primes-part of |G| (``_Universe.join``).  Each hit not yet
    found is spread over its conjugacy class."""
    pset = tuple(sorted(set(primes)))
    for p in pset:
        if not _is_prime(p):
            raise DomainError(f"{p} is not a prime")

    def compute():
        u = G.universe()
        target = _p_part(G.order, pset)
        cap = G.limits.max_subgroup_count
        if target == 1:
            return [[frozenset({u.identity})]]
        if target == G.order:
            return [[frozenset(range(u.n))]]
        anchor_p = max((p for p in pset if G.order % p == 0),
                       key=lambda p: _p_part(G.order, (p,)))
        p0_set = sylow(G, anchor_p).indices
        sylows = [(q, _p_part(G.order, (q,)),
                   list(_conjugates(u, {sylow(G, q).indices: ()})))
                  for q in pset if q != anchor_p and G.order % q == 0]
        candidates = {p0_set}
        queue = [p0_set]
        for c_set in queue:
            for q, q_part, q_sets in sylows:
                if _p_part(len(c_set), (q,)) == q_part:
                    continue
                for s in q_sets:
                    joined = u.join(tuple(s - c_set), target, c_set)
                    if joined is None or joined in candidates:
                        continue
                    if len(candidates) >= cap:
                        raise ResourceLimitError(
                            "Hall-subgroup search grew past the count cap",
                            cap_name="max_subgroup_count", cap_value=cap)
                    candidates.add(joined)
                    queue.append(joined)
        classes = []
        found: set[frozenset[int]] = set()
        for s in _sorted_sets(c for c in candidates if len(c) == target):
            if s not in found:
                cls = _conjugates(u, {s: ()})
                found.update(cls)
                classes.append(_sorted_sets(cls))
        return classes
    return _memo(G, ("hall", pset), compute)


def hall_subgroups(G: PermGroup, primes) -> list[Subgroup]:
    """All subgroups whose order is the full primes-part of |G| and whose
    index carries none of the given primes, sorted by order then element
    list.  Possibly empty.  The search works up to conjugacy
    (``_hall_classes``); this is the union of the classes."""
    members = [s for cls in _hall_classes(G, primes) for s in cls]
    return [Subgroup(G, s) for s in _sorted_sets(members)]


# ---------------------------------------------------------------------------
# cores


def _largest_normal_over(G: PermGroup, floor: frozenset[int], primes) -> frozenset[int]:
    """The largest normal subgroup N of G over the normal subgroup floor
    whose index |N : floor| involves only the given primes.  By the
    correspondence theorem this is the preimage of the largest normal
    subgroup of G/floor of that kind, and it is unique: the product of two
    such normal subgroups is one too.

    One greedy pass over the conjugacy classes finds it, growing n from
    floor (``_Universe.grow``): a class C outside n joins when <n, C>, a
    normal subgroup, has order dividing target = |floor| times the
    primes-part of |G : floor|, that is when its index over floor involves
    only the primes (``_Universe.join``).  A class of N always joins, since
    n <= <n, C> <= N; a class outside N never does, since <n, C> would then
    be a larger one of the kind.  So a class that fails against n fails
    against every later n, and one pass ends at N.  The result is checked
    to be normal."""
    pset = frozenset(p for p in primes if (G.order // len(floor)) % p == 0)

    def compute():
        u = G.universe()
        target = len(floor) * _p_part(G.order // len(floor), pset)
        n, _ = u.grow(u.conjugacy_classes(), target, floor)
        if not _normalised_by(u.conj_rows, n, n):
            raise CrossCheckError("the largest normal subgroup over a floor is not normal")
        return n
    return _memo(G, ("normal_over", floor, pset), compute)


def core_series_subgroup(G: PermGroup, primes) -> Subgroup:
    """O_pi(G), the largest normal subgroup whose order only involves the
    given primes: ``_largest_normal_over`` the trivial floor.  A non-prime
    raises DomainError, a prime above max_prime ResourceLimitError."""
    for p in primes:
        if not _is_prime(p):
            raise DomainError(f"{p} is not a prime")
    trivial = frozenset({G.universe().identity})
    return Subgroup(G, _largest_normal_over(G, trivial, primes))
