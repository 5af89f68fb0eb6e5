"""Naive reference implementations and cross-check routes, used only by tests.

Everything here trades speed for obviousness: plain multiplicative closure,
a multiplication table composed product by product, whole-group scans,
explicit reachability, the hall graph over every Hall subgroup, and second
routes to quantities the library computes one way only (chief series with
either tie-break, the largest normal subgroup over a floor by a scan of the
normal lattice, Hall subgroups by joins with every pi-element, F_i by a
normal-complement scan and by a quotient group's core, exhaustive dispersion
schedules and the class length over quotient groups, the least non-pi-closed
join of two pi-elements by a scan of every pair, the maximal-subgroup
reading of class-local nilpotency, nilpotency by Sylow normality, Schmidt
groups by the full subgroup lattice and Schmidt subgroups by a walk over the
two-generated subgroups, pi-closure by the normal-subgroup lattice, the
Frattini subgroup from the maximal subgroups, and the subgroup lattice and
two-generated pool closing every cyclic extension and join instead of one
per normaliser orbit, known joins included), the subgroups over an
elementary abelian layer counted off the full lattice and by a walk of
generic closures, that layer from the normal lattice, the Schmidt pairs
closing every p-element's orbit, and a verdict report's JSON by json.dumps
of its payload dict.  The library must agree with these on every group
small enough to brute-force.  Test-only helpers (the zoo's tags, the vm
component decomposition) live here too.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import reduce
from itertools import permutations
from operator import mul

from sigmagraph.errors import CrossCheckError, DomainError, ResourceLimitError
from sigmagraph.graphs import build_vm
from sigmagraph.group import (EngineLimits, PermGroup, Subgroup, _conjugates, _coset_labels,
                              _gaussian_binomials, _join_work_error, _normal_subgroup_sets,
                              _sorted_sets, all_subgroups,
                              centralizer, centralizer_of_factor, core_series_subgroup,
                              hall_subgroups, is_normal,
                              maximal_subgroups, normal_subgroups, normalizer,
                              quotient, sylow, two_generated_subgroups)
from sigmagraph.perm import Permutation
from sigmagraph.predicates import f_class_subgroup
from sigmagraph.sigma import (ATOMIC, _p_part, pi_part, prime_factors, primes_of,
                              sigma_of_group, sigma_of_int)
from sigmagraph.zoo import zoo

# zoo groups small enough for every brute-force route here
ORACLE_TAGS = ("S3", "V4", "D4", "Q8", "A4", "dic3", "D6", "sl23", "S4",
               "f20", "c7_c3", "C30", "D5", "A5")


def zoo_tags() -> tuple[str, ...]:
    return tuple(e.tag for e in zoo())


def rebuilt(G, **caps):
    """A group of its own on G's generators, under EngineLimits(**caps)."""
    return PermGroup(G.degree, G.generators, EngineLimits(**caps))


def report_json_by_dumps(report) -> str:
    """A verdict report's JSON as json.dumps writes a payload dict built with
    its keys (and those of its checks and partition) in sorted order."""
    def check(c):
        return {"evaluated": c.evaluated, "holds": c.holds, "name": c.name,
                "witness": c.witness}
    return json.dumps({
        "conclusions": [check(c) for c in report.conclusions],
        "group": report.group_tag,
        "hypotheses": [check(c) for c in report.hypotheses],
        "sigma": report.sigma.to_json(),
        "statement": report.statement_id,
        "verdict": report.verdict,
    })


def closure(degree: int, elements) -> frozenset:
    """Subgroup generated by the given permutations, as an element set."""
    identity = Permutation(tuple(range(degree)))
    gens = [g for g in elements if not g.is_identity]
    out = {identity}
    frontier = [identity]
    while frontier:
        step = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in out:
                    out.add(b)
                    step.append(b)
        frontier = step
    return frozenset(out)


def composed_table(perms) -> tuple[list[list[int]], list[int]]:
    """Multiplication table and inverse list of an element list, each entry
    composed from images: rows[i][j] is the index of perms[i] * perms[j]."""
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[p * q] for q in perms] for p in perms]
    return rows, [index[p.inverse()] for p in perms]


def index_closure(perms, gen_idxs) -> frozenset[int]:
    """Indices in perms of the subgroup that the given indices generate."""
    index = {p: i for i, p in enumerate(perms)}
    return frozenset(index[p] for p in closure(perms[0].degree, [perms[i] for i in gen_idxs]))


def cyclic_subgroup_sets(u) -> dict:
    """Each cyclic subgroup of the table u as {element set: generators}: the
    trivial one with (), then <g> with (g,) for each least generator g in
    ``u.cyclic``, its element set walked along row g."""
    out = {frozenset({u.identity}): ()}
    for g in u.cyclic:
        powers = [g]
        while powers[-1] != u.identity:
            powers.append(u.mul(g, powers[-1]))
        out[frozenset(powers)] = (g,)
    return out


def layer_count_by_lattice(G, e_set) -> int:
    """The subgroups H of G's full lattice with |HE : E| equal to 1 or a
    prime, for E = e_set: |HE : E| = |H : H ∩ E|."""
    indices = (s.order // len(s.indices & e_set) for s in all_subgroups(G))
    return sum(1 for i in indices if i == 1 or prime_factors(i) == ((i, 1),))


def layer_count_by_closures(G, e_set, stop, work=0) -> tuple[int, int]:
    """``group._layer_count`` with every join a Dimino closure: each
    x-invariant K is joined with an x-orbit of E by ``_Universe.closure``,
    each coset whose <xE> has a non-prime order closes its own preimage, and
    the join work is charged one t at a time, the join-work error raised at
    the t that reaches max_join_work."""
    u = G.universe()
    mul, identity = u.mul, u.identity
    p, d = (prime_factors(len(e_set)) or ((1, 0),))[0]
    count = sum(_gaussian_binomials(p, d))
    e_list = sorted(e_set)
    trivial = frozenset({identity})
    _, reps = _coset_labels(u, e_set)
    covered = set(e_set)
    for x in reps:
        if x in covered:
            continue
        h = u.closure((x,), base=e_set)
        q = len(h) // len(e_set)
        if prime_factors(q) != ((q, 1),):
            continue
        cls = _conjugates(u, {h: ()})
        covered.update(*cls)
        hits = Counter()
        for y in u.gather(e_list)(u.rows[x]):
            z = y
            for _ in range(q - 1):
                z = mul(y, z)
            hits[z] += 1
        conj = dict(zip(e_list, u.conjugates(x, e_list)))
        found = {trivial}
        queue = [trivial]
        for k in queue:
            share, rest = divmod(sum(map(hits.__getitem__, k)), len(k))
            if rest:
                raise CrossCheckError("a coset of an invariant subgroup is split by its q-th powers")
            count += len(cls) * share
            if count > stop:
                return count, work
            skip = set(k)
            coset = u.gather(tuple(k))
            for t in e_list:
                if t in k:
                    continue
                if work == G.limits.max_join_work:
                    raise _join_work_error(G.limits)
                work += 1
                if t in skip:
                    continue
                orbit = [t]
                while (w := conj[orbit[-1]]) != t:
                    orbit.append(w)
                j = u.closure(orbit, base=k)
                if len(j) == p * len(k):
                    skip |= j
                else:
                    for w in orbit:
                        skip.update(coset(u.rows[w]))
                if j not in found:
                    found.add(j)
                    queue.append(j)
    return count, work


def elementary_layer_by_normal_lattice(G, p) -> frozenset[int]:
    """Omega_1(Z(O_p(G))) as indices of G's table: O_p(G) is the largest
    member of the normal lattice whose order is a power of p, its centre the
    elements commuting with all of it, and of those the ones whose p-th
    power is the identity, by Permutation products."""
    o_p = max((n for n in normal_subgroups(G) if _p_part(n.order, (p,)) == n.order),
              key=lambda n: n.order)
    elems = o_p.elements()
    centre = [z for z in elems if all(z * a == a * z for a in elems)]
    u = G.universe()
    return frozenset(u.idx_of(z) for z in centre if reduce(mul, [z] * p).is_identity)


def brute_subgroup_sets(G) -> set[frozenset]:
    """Every subgroup element set, grown one generator at a time."""
    elems = list(G.elements())
    degree = G.degree
    trivial = closure(degree, [])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        step = []
        for s in frontier:
            for g in elems:
                if g in s:
                    continue
                t = closure(degree, set(s) | {g})
                if t not in found:
                    found.add(t)
                    step.append(t)
        frontier = step
    return found


def new_classes_every_join(u, found, pairs, limits):
    """The library's ``_new_classes`` without its skip of known joins: close
    every (K, gens) of pairs to <K, gens>, add each subgroup not yet found,
    with its conjugacy class, to found and yield it.  Raises past
    max_join_work closures or max_subgroup_count subgroups."""
    for work, (k, gens) in enumerate(pairs):
        if work == limits.max_join_work:
            raise ResourceLimitError(
                "subgroup search exceeded its closure budget",
                cap_name="max_join_work", cap_value=limits.max_join_work)
        h = u.closure(gens, base=k)
        if h not in found:
            h_gens = found[k] + gens
            cls = _conjugates(u, {h: h_gens if len(h_gens) <= 4 else u.derive_gens(h)})
            if len(found) + len(cls) > limits.max_subgroup_count:
                raise ResourceLimitError(
                    "subgroup family grew past the count cap",
                    cap_name="max_subgroup_count", cap_value=limits.max_subgroup_count)
            found.update(cls)
            yield h


def subgroup_sets_every_extension(G) -> list:
    """``all_subgroups`` as (element set, generators) pairs, with each class
    representative K closed with every cyclic p-subgroup <y>, y outside K and
    y^p in K, not with one <y> per N_G(K)-orbit.  Raises like the library
    on the count and closure caps, but counts every closure."""
    u = G.universe()
    steps = []
    for y in u.cyclic:
        factors = prime_factors(u.orders[y])
        if len(factors) == 1:
            yp = y
            for _ in range(factors[0][0] - 1):
                yp = u.mul(y, yp)
            steps.append((y, yp))
    trivial = frozenset({u.identity})
    found = {trivial: ()}
    reps = [trivial]
    pairs = ((k, (y,)) for k in reps for y, yp in steps if y not in k and yp in k)
    for h in new_classes_every_join(u, found, pairs, G.limits):
        reps.append(h)
    return [(s, found[s]) for s in _sorted_sets(found)]


def two_generated_sets_every_join(G) -> list:
    """``two_generated_subgroups`` as (element set, generators) pairs, with
    one cyclic <a> per conjugacy class joined with every cyclic <b>, not with
    one <b> per N_G(<a>)-orbit."""
    u = G.universe()
    cyclic = cyclic_subgroup_sets(u)
    found = {}
    reps = []
    for a, a_gens in cyclic.items():
        if a not in found:
            reps.append(a)
            found.update(_conjugates(u, {a: a_gens}))
    pairs = ((a, b_gens) if len(a) >= len(b) else (b, found[a])
             for a in reps for b, b_gens in cyclic.items() if not (a <= b or b <= a))
    for _ in new_classes_every_join(u, found, pairs, G.limits):
        pass
    return [(s, found[s]) for s in _sorted_sets(found)]


def naive_centralizer(G, sub_elements) -> frozenset:
    subs = list(sub_elements)
    return frozenset(g for g in G.elements()
                     if all(g * s == s * g for s in subs))


def naive_normalizer(G, sub_elements) -> frozenset:
    sset = frozenset(sub_elements)
    return frozenset(g for g in G.elements()
                     if frozenset(g.inverse() * s * g for s in sset) == sset)


def naive_centralizer_of_factor(G, h_elements, k_elements) -> frozenset:
    """Elements g with every commutator g^-1 h^-1 g h, h in H, inside K."""
    hs, ks = list(h_elements), frozenset(k_elements)
    return frozenset(g for g in G.elements()
                     if all(g.inverse() * h.inverse() * g * h in ks for h in hs))


def naive_conjugacy_classes(G) -> set[frozenset]:
    """Every class {g^-1 x g : g in G}, conjugating by all of G."""
    elems = G.elements()
    return {frozenset(g.inverse() * x * g for g in elems) for x in elems}


def hall_edges_every_member(G, sigma) -> frozenset:
    """The hall graph's edge set with every Hall subgroup tried, not one per
    conjugacy class."""
    edges = set()
    for ci in sigma_of_group(G, sigma):
        for h in hall_subgroups(G, [p for p in primes_of(G.order) if ci.contains(p)]):
            n = normalizer(G, h)
            c = centralizer(G, h)
            hc = h.order * c.order // len(h.indices & c.indices)
            edges.update((ci, cj) for cj in sigma_of_int(n.order // hc, sigma))
    return frozenset(edges)


def brute_has_circuit(vertices, edges) -> bool:
    succ = {v: set() for v in vertices}
    for a, b in edges:
        succ[a].add(b)
    for start in vertices:
        frontier = set(succ[start])
        seen = set(frontier)
        while frontier:
            if start in frontier:
                return True
            frontier = {w for v in frontier for w in succ[v]} - seen
            seen |= frontier
    return False


def vm_edges_from_candidates(g, sigma, candidates) -> set:
    """Definitional vm edge set over an explicit pool of candidate subgroups.
    A candidate is critical when its order meets two classes and the full
    lattice shows it is a Schmidt group (Skiba, J. Algebra 436 (2015))."""
    edges = set()
    for s in candidates:
        if (len(sigma_of_int(s.order, sigma)) != 2 or len(primes_of(s.order)) != 2
                or not is_schmidt_by_lattice(s.group)):
            continue
        for ci in sigma_of_int(s.order, sigma):
            f = f_class_subgroup(s.group, ci)
            for cj in sigma_of_int(s.order // f.order, sigma):
                edges.add((ci, cj))
    return edges


def _normal_sylow_primes(G, idxs) -> tuple[int, ...]:
    """Primes p of |H|, for the subgroup H of G with index set idxs, whose
    Sylow p-subgroup is normal in H.  Every Sylow p-subgroup consists of
    p-elements (orders dividing |H|_p), so it is the only one exactly when
    the p-elements of H number |H|_p."""
    orders = G.universe().orders
    return tuple(p for p, e in prime_factors(len(idxs))
                 if sum(p**e % orders[i] == 0 for i in idxs) == p**e)


def nilpotent_by_sylows(G) -> bool:
    """Nilpotent = every Sylow subgroup is normal."""
    return all(is_normal(G, sylow(G, p))
               for p, _ in prime_factors(G.order))


def is_schmidt_by_lattice(G) -> bool:
    """Not nilpotent, but every proper subgroup of the full lattice is,
    each tested as a group in its own right."""
    return (not nilpotent_by_sylows(G)
            and all(nilpotent_by_sylows(s.group)
                    for s in all_subgroups(G) if s.order < G.order))


def schmidt_pairs_every_generator(G):
    """``predicates._schmidt_pairs`` closing the y-orbit of every p-element
    a with [a, y] != 1, with no skip for an orbit of <a> closed before:
    (p, q, y, subgroups) with subgroups a list, repeats included."""
    u = G.universe()
    facts = prime_factors(u.n)
    out = []
    for cls in u.conjugacy_classes():
        y = cls[0]
        q = primes_of(u.orders[y])
        if len(q) != 1:
            continue
        for p, e in facts:
            if p == q[0]:
                continue
            ps = [i for i in range(u.n) if u.orders[i] > 1 and p**e % u.orders[i] == 0]
            conj = dict(zip(ps, u.conjugates(y, ps)))
            subgroups = []
            for a in ps:
                if conj[a] == a:
                    continue
                orbit, x = [a], conj[a]
                while x != a:
                    orbit.append(x)
                    x = conj[x]
                s = u.closure(orbit, cap=p**e)
                if s is not None and p**e % len(s) == 0:
                    subgroups.append(s)
            out.append((p, q[0], y, subgroups))
    return out


def schmidt_subgroups(G):
    """Every Schmidt (minimal non-nilpotent) subgroup H of G, as (H, p, q):
    p is the prime of the normal Sylow subgroup of H, q the other prime.

    A Schmidt group is two-generated, so the walk runs over the two-generated
    subgroups in increasing order.  A non-nilpotent one is minimal exactly
    when no Schmidt subgroup found before it lies strictly inside it.  Each
    hit is checked against the P . <y> shape: two primes, exactly one normal
    Sylow subgroup, and an element of order |H|_q."""
    orders = G.universe().orders
    found = []
    for s in two_generated_subgroups(G):
        if any(h.indices < s.indices for h, _, _ in found):
            continue
        facts = prime_factors(s.order)
        normal = _normal_sylow_primes(G, s.indices)
        if len(normal) == len(facts):
            continue  # nilpotent
        q, qe = facts[-1] if facts[0][0] in normal else facts[0]
        if (len(facts) != 2 or len(normal) != 1
                or not any(orders[i] == q**qe for i in s.indices)):
            raise CrossCheckError(
                "a minimal non-nilpotent group failed the normal-Sylow shape check")
        found.append((s, normal[0], q))
    return found


def is_class_number(n, cls) -> bool:
    """Every prime factor of n lies in cls."""
    return pi_part(n, frozenset({cls})) == n


def frattini(G):
    """Intersection of the maximal subgroups (G itself if none exist)."""
    cut = frozenset(range(G.universe().n))
    for m in maximal_subgroups(G):
        cut &= m.indices
    return Subgroup(G, cut)


def is_pi_closed_by_normal_lattice(G, pi) -> bool:
    """Some normal subgroup has order |G|_pi."""
    target = pi_part(G.order, pi.classes)
    return any(len(s) == target for s in _normal_subgroup_sets(G))


def pairs_pi_closed_every_pair(G, pi) -> tuple[bool, str]:
    """``verify._pairs_pi_closed`` without its two prunings: every
    non-commuting pair (a, b), a the least member of its class of
    pi-elements and b a generator of a cyclic pi-subgroup, is closed, pairs
    that meet O_pi(G) included, and the scan does not stop at order 6.
    Each join is capped as in the library: at |G|/2, then below the least
    order found."""
    u = G.universe()
    t = pi_part(G.order, pi.classes)
    firsts = [a for a, *_ in u.conjugacy_classes()
              if a != u.identity and t % u.orders[a] == 0]
    bs = [b for b in u.cyclic if t % u.orders[b] == 0]
    least = G.order // 2 + 1
    for a in firsts:
        for b in bs:
            if u.mul(a, b) != u.mul(b, a):
                s = u.closure((a, b), cap=least - 1)
                if s is not None and t % len(s) != 0:
                    least = len(s)
    if least > G.order // 2:
        return True, ""
    return False, f"subgroup of order {least} is not pi-closed"


def largest_normal_over_by_lattice(G, floor, primes) -> frozenset:
    """The largest normal subgroup of G over the normal subgroup floor whose
    index over it involves only the given primes, as an element set: the
    last such member of the normal lattice, which must hold all the
    others."""
    pset = frozenset(primes)
    hits = [s for s in _normal_subgroup_sets(G)
            if floor <= s and all(p in pset for p, _ in prime_factors(len(s) // len(floor)))]
    best = hits[-1]  # normal sets ascend by order; floor itself is a hit
    if not all(s <= best for s in hits):
        raise CrossCheckError("normal subgroups with restricted order admit no unique maximum")
    return best


def hall_classes_every_pi_element(G, primes) -> list:
    """``_hall_classes`` with each candidate joined with every pi-element
    (one generator per cyclic subgroup), not with Sylow subgroups for the
    primes it lacks.  Raises on the count cap at its own candidate count."""
    pset = frozenset(primes)
    u = G.universe()
    target = 1
    for p, e in prime_factors(G.order):
        if p in pset:
            target *= p**e
    if target == 1:
        return [[frozenset({u.identity})]]
    if target == G.order:
        return [[frozenset(range(u.n))]]
    anchor_p = max((p for p in pset if G.order % p == 0),
                   key=lambda p: _p_part(G.order, (p,)))
    p0_set = sylow(G, anchor_p).indices
    candidates = {p0_set}
    queue = [p0_set]
    pi_elements = [i for i in u.cyclic if target % u.orders[i] == 0]
    for c_set in queue:
        for x in pi_elements:
            if x in c_set:
                continue
            joined = u.closure((x,), base=c_set, cap=target)
            if joined is None or target % len(joined) != 0 or joined in candidates:
                continue
            if len(candidates) >= G.limits.max_subgroup_count:
                raise ResourceLimitError(
                    "Hall-subgroup search grew past the count cap",
                    cap_name="max_subgroup_count", cap_value=G.limits.max_subgroup_count)
            candidates.add(joined)
            queue.append(joined)
    classes = []
    found = set()
    for s in _sorted_sets(c for c in candidates if len(c) == target):
        if s not in found:
            cls = _conjugates(u, {s: ()})
            found.update(cls)
            classes.append(_sorted_sets(cls))
    return classes


def has_sylow_tower(G) -> bool:
    """Some normal Sylow subgroup whose quotient again has a tower."""
    if G.order == 1:
        return True
    for p, _ in prime_factors(G.order):
        syl = sylow(G, p)
        if is_normal(G, syl):
            if has_sylow_tower(quotient(G, syl).image):
                return True
    return False


# ---------------------------------------------------------------------------
# chief series with either tie-break


def chief_series_terms(G, prefer="smallest"):
    """Ascending chief series that takes the canonically smallest or largest
    minimal normal subgroup above each term.  "smallest" is the library's
    series; "largest" is a second series for Jordan-Holder checks."""
    normals = normal_subgroups(G)
    sets = [n.indices for n in normals]
    chain = [0]
    while chain[-1] != len(sets) - 1:  # the last normal subgroup is G
        cur = sets[chain[-1]]
        above = [i for i, s in enumerate(sets) if cur < s]
        minimal = [i for i in above if not any(sets[j] < sets[i] for j in above)]
        chain.append(minimal[0] if prefer == "smallest" else minimal[-1])
    return [normals[i] for i in chain]


def chief_invariants(G, prefer="smallest"):
    """(factor order, automizer order) along chief_series_terms(G, prefer)."""
    terms = chief_series_terms(G, prefer)
    return [(above.order // below.order,
             G.order // centralizer_of_factor(G, above, below).order)
            for below, above in zip(terms, terms[1:])]


def sigma_soluble_by_series(G, sigma, prefer) -> bool:
    return G.is_trivial or all(len(sigma_of_int(fo, sigma)) == 1
                               for fo, _ in chief_invariants(G, prefer))


def sigma_nilpotent_by_series(G, sigma, prefer) -> bool:
    return G.is_trivial or all(len(sigma_of_int(fo * ao, sigma)) == 1
                               for fo, ao in chief_invariants(G, prefer))


def is_class_nilpotent_by_chief_factors(G, cls, prefer="smallest") -> bool:
    """Every chief factor whose order touches cls is cls-central.  Provably
    equal to is_class_nilpotent; kept independent."""
    if G.is_trivial:
        return True
    return all(is_class_number(fo * ao, cls)
               for fo, ao in chief_invariants(G, prefer)
               if any(cls.contains(p) for p in primes_of(fo)))


# ---------------------------------------------------------------------------
# second routes to F_i, to dispersion and to the class length, by quotients


def f_class_subgroup_by_normal_complement(G, cls):
    """Largest normal N with a normal subgroup M of G inside it of order
    |N| / |N|_cls (a normal Hall subgroup of N avoiding cls), found by
    scanning every pair of normal subgroups; the maximum must be unique."""
    normals = normal_subgroups(G)
    hits = [n for n in normals
            if any(m.order * pi_part(n.order, frozenset({cls})) == n.order
                   and m.indices <= n.indices for m in normals)]
    best = hits[-1]  # normals ascend by order
    if not all(n.indices <= best.indices for n in hits):
        raise CrossCheckError("class-nilpotent normal subgroups admit no unique maximum")
    return best


def f_class_subgroup_by_pullback(G, cls):
    """The core avoiding cls, pulled back through the cls-core of the
    quotient."""
    out_primes = [p for p in primes_of(G.order) if not cls.contains(p)]
    d = core_series_subgroup(G, out_primes)
    q = quotient(G, d)
    in_primes = [p for p in primes_of(q.image.order) if cls.contains(p)]
    e_img = core_series_subgroup(q.image, in_primes)
    return Subgroup(G, q.preimage_indices(e_img))


def _normal_hall_for_class(G, cls):
    """Some normal subgroup of order |G|_cls, or None."""
    target = pi_part(G.order, frozenset({cls}))
    for n in normal_subgroups(G):
        if n.order == target:
            return n
    return None


def sigma_length_by_quotients(G, cls) -> int:
    """The upper alternating series for cls with each core taken in a
    quotient group of its own and pulled back through the projection."""
    if G.is_trivial:
        return 0
    u = G.universe()
    full = frozenset(range(u.n))
    cur = frozenset({u.identity})
    length = 0
    while cur != full:
        q = quotient(G, Subgroup(G, cur))
        away = [p for p in primes_of(q.image.order) if not cls.contains(p)]
        d = q.preimage_indices(core_series_subgroup(q.image, away))
        if d == full:
            break
        q2 = quotient(G, Subgroup(G, d))
        toward = [p for p in primes_of(q2.image.order) if cls.contains(p)]
        e = q2.preimage_indices(core_series_subgroup(q2.image, toward))
        if e == d:
            raise DomainError(f"upper series for class {cls} stalls below the whole group")
        length += 1
        cur = e
    return length


def dispersive_by_ordering_search(G, sigma) -> bool:
    """Try every ordering of the classes of |G| as a fixed tower schedule.
    Exponential in the class count; corpus groups have at most three
    classes."""
    if G.is_trivial:
        return True
    classes = sorted(sigma_of_int(G.order, sigma), key=lambda c: c.sort_key)
    for ordering in permutations(classes):
        cur = G
        ok = True
        for cls in ordering:
            if cur.order == 1:
                break
            part = pi_part(cur.order, frozenset({cls}))
            if part == 1:
                continue
            n = _normal_hall_for_class(cur, cls)
            if n is None or n.order != part:
                ok = False
                break
            cur = quotient(cur, n).image
        if ok and cur.order == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# maximal-subgroup reading of class-local nilpotency


def is_pi_central_factor(G, H, K, primes) -> bool:
    """True when the chief factor H/K and its automizer G/C_G(H/K) are both
    pi-groups.  Rejects input that is not a chief factor of G."""
    pset = frozenset(primes)
    h_set, k_set = H.indices, K.indices
    normal = set(_normal_subgroup_sets(G))
    if h_set not in normal or k_set not in normal or not k_set < h_set:
        raise DomainError("H/K is not a factor of normal subgroups of G")
    if any(k_set < s < h_set for s in normal):
        raise DomainError("H/K is not a chief factor of G: a normal subgroup lies between")
    c = centralizer_of_factor(G, H, K)
    return (set(primes_of(len(h_set) // len(k_set))) <= pset
            and set(primes_of(G.order // c.order)) <= pset)


def subgroup_core(G, M):
    """Largest normal subgroup of G inside M."""
    best = None
    for s in _normal_subgroup_sets(G):
        if s <= M.indices and (best is None or len(s) > len(best)):
            best = s
    return Subgroup(G, best)


def is_pi_normal_maximal(G, M, primes) -> bool:
    """Either |G:M| avoids pi, or some chief factor right above the core of M
    is pi-central."""
    pset = frozenset(primes)
    if not (set(primes_of(G.order // M.order)) & pset):
        return True
    core = subgroup_core(G, M)
    core_set = core.indices
    normal = _normal_subgroup_sets(G)
    above = [s for s in normal if core_set < s]
    for v in above:
        if any(core_set < t < v for t in above):
            continue
        if is_pi_central_factor(G, Subgroup(G, v), core, pset):
            return True
    return False


# ---------------------------------------------------------------------------
# classical specialisation used by the acceptance suite


def weak_components(graph) -> list[frozenset]:
    """Connected components ignoring direction, canonically ordered."""
    neighbours = {v: set() for v in graph.vertices}
    for a, b in graph.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen = set()
    out = []
    for v in graph.sorted_vertices():
        if v in seen:
            continue
        comp, queue = {v}, [v]
        while queue:
            x = queue.pop()
            for y in neighbours[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        out.append(frozenset(comp))
    return out


def component_decomposition_holds(G) -> bool:
    """Under the finest partition: with the vm components as prime blocks,
    G must be the direct product of its block cores (order product check and
    pairwise trivial intersections)."""
    if G.is_trivial:
        return True
    vm = build_vm(G, ATOMIC)
    blocks = []
    for comp in weak_components(vm):
        primes = sorted(p for cls, ps in vm.vertex_primes if cls in comp for p in ps)
        blocks.append(core_series_subgroup(G, primes))
    product = 1
    for b in blocks:
        product *= b.order
    if product != G.order:
        return False
    for i, x in enumerate(blocks):
        for y in blocks[i + 1:]:
            if len(x.indices & y.indices) != 1:
                return False
    return True
