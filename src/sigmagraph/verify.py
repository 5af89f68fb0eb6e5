"""Statement verifiers: evaluate hypotheses and conclusions on a concrete
group and produce a structured report.

A report FAILs exactly when every hypothesis holds and some evaluated
conclusion does not.  Unmet hypotheses or fully gated-out conclusions give a
vacuous verdict; vacuity is never counted as evidence.  Conclusions carry an
`evaluated` flag so that per-part gates (which are conditions of the
statement itself, not of the instance) can switch parts off without
pretending they passed.  Checks and reports are named tuples, and a
report's JSON is built with its keys already in sorted order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError
from .graphs import (SigmaGraph, build_hall, build_hawkes, build_vm, graphs_equal,
                     has_circuit, has_loop, isolated_vertices, is_subgraph, union)
from .group import (DEFAULT_LIMITS, EngineLimits, PermGroup, Subgroup,
                    _memo, _product_order, core_series_subgroup, maximal_subgroups, subgroup)
from .perm import Permutation
from .predicates import (_pi_closed_indices, is_pi_closed, is_schmidt,
                         is_sigma_dispersive, is_sigma_nilpotent, is_sigma_soluble,
                         sigma_length)
from .sigma import (PiSet, SigmaPartition, pi_part, primes_of, sigma_coprime,
                    sigma_of_group)
from .zoo import build_by_tag


class CheckResult(NamedTuple):
    name: str
    holds: bool
    witness: str = ""
    evaluated: bool = True  # False: gated out, recorded for the record only


class VerificationReport(NamedTuple):
    statement_id: str
    group_tag: str
    sigma: SigmaPartition
    hypotheses: tuple[CheckResult, ...]
    conclusions: tuple[CheckResult, ...]
    verdict: str  # pass | vacuous | FAIL

    def to_json(self) -> str:
        """One JSON object; its keys (and those of the objects in it) are
        written in sorted order."""
        payload = {
            "conclusions": [_check_json(c) for c in self.conclusions],
            "group": self.group_tag,
            "hypotheses": [_check_json(c) for c in self.hypotheses],
            "sigma": self.sigma.to_json(),
            "statement": self.statement_id,
            "verdict": self.verdict,
        }
        return json.dumps(payload)


def _check_json(c: CheckResult) -> dict:
    return {"evaluated": c.evaluated, "holds": c.holds, "name": c.name,
            "witness": c.witness}


def make_report(statement_id: str, group_tag: str, sigma: SigmaPartition,
                hypotheses, conclusions) -> VerificationReport:
    hypotheses = tuple(hypotheses)
    conclusions = tuple(conclusions)
    live = [c for c in conclusions if c.evaluated]
    if not all(h.holds for h in hypotheses if h.evaluated) or not live:
        verdict = "vacuous"
    elif all(c.holds for c in live):
        verdict = "pass"
    else:
        verdict = "FAIL"
    return VerificationReport(statement_id, group_tag, sigma, hypotheses,
                              conclusions, verdict)


def _edge_text(graph: SigmaGraph) -> str:
    return "{" + ", ".join(f"({a.tag},{b.tag})" for a, b in graph.sorted_edges()) + "}"


# ---------------------------------------------------------------------------
# graph-chain statement


def verify_prop_1_2(G: PermGroup, sigma: SigmaPartition,
                    group_tag: str = "G") -> VerificationReport:
    """Inclusion chain hall <= vm <= hawkes, and: all three equal <=> hawkes
    loop-free <=> soluble with every class length at most one."""
    hall = build_hall(G, sigma, group_tag=group_tag)
    vm = build_vm(G, sigma, group_tag=group_tag)
    hawkes = build_hawkes(G, sigma, group_tag=group_tag)
    conclusions = [
        CheckResult("hall-inside-vm", is_subgraph(hall, vm),
                    f"hall={_edge_text(hall)} vm={_edge_text(vm)}"),
        CheckResult("vm-inside-hawkes", is_subgraph(vm, hawkes),
                    f"vm={_edge_text(vm)} hawkes={_edge_text(hawkes)}"),
    ]
    no_loops = not has_loop(hawkes)
    soluble = is_sigma_soluble(G, sigma)
    # sorted: the early exit must not depend on the set's hash order
    short = soluble and all(
        sigma_length(G, cls) <= 1
        for cls in sorted(sigma_of_group(G, sigma), key=lambda c: c.sort_key))
    conclusions.append(CheckResult(
        "no-loops-iff-soluble-short", no_loops == short,
        f"no_loops={no_loops} soluble={soluble} all_lengths_le_1={short}"))
    all_equal = graphs_equal(hall, vm) and graphs_equal(vm, hawkes)
    conclusions.append(CheckResult(
        "equality-iff-no-loops", all_equal == no_loops,
        f"all_equal={all_equal} no_loops={no_loops}"))
    return make_report("prop-1.2", group_tag, sigma, (), conclusions)


def verify_thm_1_4(G: PermGroup, sigma: SigmaPartition,
                   group_tag: str = "G") -> VerificationReport:
    """Dispersive <=> hawkes circuit-free <=> soluble with circuit-free vm."""
    s1 = is_sigma_dispersive(G, sigma)
    s2 = not has_circuit(build_hawkes(G, sigma, group_tag=group_tag))
    s3 = (is_sigma_soluble(G, sigma)
          and not has_circuit(build_vm(G, sigma, group_tag=group_tag)))
    witness = f"dispersive={s1} hawkes_acyclic={s2} soluble_and_vm_acyclic={s3}"
    conclusions = [
        CheckResult("dispersive-iff-hawkes-acyclic", s1 == s2, witness),
        CheckResult("hawkes-acyclic-iff-soluble-vm-acyclic", s2 == s3, witness),
    ]
    return make_report("thm-1.4", group_tag, sigma, (), conclusions)


def verify_thm_1_12(G: PermGroup, sigma: SigmaPartition,
                    group_tag: str = "G") -> VerificationReport:
    """Nilpotent for sigma <=> hawkes edgeless <=> vm edgeless <=> soluble
    with edgeless hall graph (per-vertex isolation)."""
    hawkes = build_hawkes(G, sigma, group_tag=group_tag)
    vm = build_vm(G, sigma, group_tag=group_tag)
    hall = build_hall(G, sigma, group_tag=group_tag)
    s1 = is_sigma_nilpotent(G, sigma)
    s2 = isolated_vertices(hawkes) == hawkes.vertices
    s3 = isolated_vertices(vm) == vm.vertices
    s4 = (is_sigma_soluble(G, sigma)
          and isolated_vertices(hall) == hall.vertices)
    witness = f"nilpotent={s1} hawkes_isolated={s2} vm_isolated={s3} soluble_hall_isolated={s4}"
    conclusions = [
        CheckResult("nilpotent-iff-hawkes-isolated", s1 == s2, witness),
        CheckResult("hawkes-iff-vm-isolated", s2 == s3, witness),
        CheckResult("vm-iff-soluble-hall-isolated", s3 == s4, witness),
    ]
    return make_report("thm-1.12", group_tag, sigma, (), conclusions)


# ---------------------------------------------------------------------------
# factorization statement


def _factor_union(build, factors, sigma) -> SigmaGraph:
    """The union of build's graphs of the factors, tagged A, B, C.  A
    trivial factor has no class graph and adds the empty one."""
    graphs = [SigmaGraph("empty", tag, sigma, frozenset(), frozenset()) if x.group.is_trivial
              else build(x.group, sigma, group_tag=tag) for tag, x in zip("ABC", factors)]
    return reduce(union, graphs)


def verify_thm_1_7(G: PermGroup, A: Subgroup, B: Subgroup, C: Subgroup,
                   sigma: SigmaPartition, group_tag: str = "G") -> VerificationReport:
    """For a triple factorization by soluble-for-sigma subgroups: the vm
    graph of G is the union of the factors' vm graphs (when G itself is
    soluble for sigma), and likewise for hawkes under pairwise class-coprime
    indices."""
    if any(x.parent is not G for x in (A, B, C)):
        raise DomainError("the factors must be subgroups of G")
    ab, bc, ac = (_product_order(A, B), _product_order(B, C),
                  _product_order(A, C))
    hypotheses = [
        CheckResult("G=AB=BC=AC", ab == G.order and bc == G.order and ac == G.order,
                    f"|AB|={ab} |BC|={bc} |AC|={ac} |G|={G.order}"),
    ]
    for name, x in (("A", A), ("B", B), ("C", C)):
        hypotheses.append(CheckResult(
            f"{name}-sigma-soluble", is_sigma_soluble(x.group, sigma),
            f"|{name}|={x.order}"))

    ia, ib, ic = G.order // A.order, G.order // B.order, G.order // C.order
    coprime = (sigma_coprime(ia, ib, sigma) and sigma_coprime(ib, ic, sigma)
               and sigma_coprime(ia, ic, sigma))
    conclusions = []
    for kind, build, holds, gate in (
            ("vm", build_vm, is_sigma_soluble(G, sigma), "G is not sigma-soluble"),
            ("hawkes", build_hawkes, coprime,
             f"indices {ia},{ib},{ic} are not pairwise class-coprime")):
        name = f"{kind}-union-equality"
        if holds:
            got = _factor_union(build, (A, B, C), sigma)
            want = build(G, sigma, group_tag=group_tag)
            conclusions.append(CheckResult(name, graphs_equal(got, want),
                                           f"union={_edge_text(got)} whole={_edge_text(want)}"))
        else:
            conclusions.append(CheckResult(name, True, f"gated out: {gate}", evaluated=False))
    return make_report("thm-1.7", group_tag, sigma, hypotheses, conclusions)


@dataclass(frozen=True)
class FactorizationFixture:
    tag: str
    group: PermGroup
    a: Subgroup
    b: Subgroup
    c: Subgroup


def factorization_fixtures(limits: EngineLimits = DEFAULT_LIMITS
                           ) -> tuple[FactorizationFixture, ...]:
    """Three shipped triple factorizations of the zoo's S4, s3xc5 and S3,
    each group read once from ``build_by_tag`` under limits; the harness
    never searches for factorizations on its own."""
    s4, g2, s3 = (build_by_tag(tag, limits) for tag in ("S4", "s3xc5", "S3"))
    c5 = Permutation.from_cycles(8, [(3, 4, 5, 6, 7)])
    f1 = FactorizationFixture(
        "S4=S3.D4.A4", s4,
        subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                      Permutation.from_cycles(4, [(0, 1)])]),
        subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                      Permutation.from_cycles(4, [(0, 2)])]),
        subgroup(s4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                      Permutation.from_cycles(4, [(0, 1), (2, 3)])]))
    f2 = FactorizationFixture(
        "S3xC5=S3.C15.C10", g2,
        subgroup(g2, [Permutation.from_cycles(8, [(0, 1, 2)]),
                      Permutation.from_cycles(8, [(0, 1)])]),
        subgroup(g2, [Permutation.from_cycles(8, [(0, 1, 2)]), c5]),
        subgroup(g2, [Permutation.from_cycles(8, [(0, 1)]), c5]))
    whole = subgroup(s3, list(s3.generators))
    f3 = FactorizationFixture("S3=S3.S3.S3", s3, whole, whole, whole)
    return (f1, f2, f3)


# ---------------------------------------------------------------------------
# closure statements


def _pi_vertices(G: PermGroup, sigma: SigmaPartition, pi: PiSet):
    """The classes of |G| under sigma, and those of them in pi.  A class of
    pi from another partition raises DomainError: it would meet no vertex,
    and pi would read as empty.  Such a class is never a vertex, so only the
    classes of pi outside the vertices are checked."""
    vertices = sigma_of_group(G, sigma)
    pi1 = vertices & pi.classes
    if len(pi1) < len(pi.classes) and any(c.partition != sigma for c in pi.classes - pi1):
        raise DomainError("pi holds a class of another partition than sigma")
    return vertices, pi1


def verify_prop_1_9(G: PermGroup, sigma: SigmaPartition, pi: PiSet,
                    group_tag: str = "G") -> VerificationReport:
    """No edge from outside classes into pi-classes forces a normal Hall
    subgroup on the pi part.  Checked on hawkes always, and on vm when G is
    soluble for sigma."""
    vertices, pi1 = _pi_vertices(G, sigma, pi)
    pi2 = vertices - pi1
    pi1_set = PiSet(pi1)
    graphs = {"hawkes": build_hawkes(G, sigma, group_tag=group_tag),
              "vm": build_vm(G, sigma, group_tag=group_tag)
              if is_sigma_soluble(G, sigma) else None}
    conclusions = []
    for kind, graph in graphs.items():
        name = f"{kind}-edge-absence-implies-pi-closed"
        if graph is None:
            conclusions.append(CheckResult(
                name, True, "gated out: G is not sigma-soluble", evaluated=False))
            continue
        blocked = sorted((a.tag, b.tag) for a, b in graph.edges if a in pi2 and b in pi1)
        if blocked:
            conclusions.append(CheckResult(
                name, True, f"gated out: edges into pi1 exist: {blocked}", evaluated=False))
        else:
            conclusions.append(CheckResult(
                name, is_pi_closed(G, pi1_set),
                f"pi1={{{', '.join(sorted(c.tag for c in pi1))}}}"))
    return make_report("prop-1.9", group_tag, sigma, (), conclusions)


def _pairs_pi_closed(G: PermGroup, pi: PiSet) -> tuple[bool, str]:
    """Whether every proper subgroup of G has a normal Hall pi-part, and if
    not, the least order of one that has none.

    If every <a, b> with pi-elements a and b of H is a pi-group, products of
    pi-elements of H are pi-elements, so they form a normal Hall subgroup of
    H.  So a non-closed subgroup of least order is such an <a, b>, and the
    least order of a proper <a, b> that is not a pi-group answers both.  Up
    to conjugacy a is the least member of its class, and b the least
    generator of its cyclic subgroup, one of the list ``_Universe.cyclic``.
    Commuting pairs generate pi-groups and are skipped; a join is capped
    below the least order found so far, at first at |G|/2, above which only
    G lies.  Two more rules drop pairs without changing the least order:

    - a pair with a or b in O_pi(G) is skipped: then <a, b> lies in
      O_pi(G)<b> or O_pi(G)<a>, a pi-group;
    - the scan stops at order 6: a join generated by pi-elements that is
      not a pi-group is not pi-closed, so not nilpotent, and every group of
      order below 6 is a p-group.

    Every pair, skipped or not, counts toward max_join_work."""
    u = G.universe()
    t = pi_part(G.order, pi.classes)
    firsts = [a for a, *_ in u.conjugacy_classes()
              if a != u.identity and t % u.orders[a] == 0]
    bs = [b for b in u.cyclic if t % u.orders[b] == 0]
    cap = G.limits.max_join_work
    if len(firsts) * len(bs) > cap:
        raise ResourceLimitError(
            "pi-element pair scan exceeded its closure budget",
            cap_name="max_join_work", cap_value=cap)
    core = core_series_subgroup(G, primes_of(t)).indices
    least = G.order // 2 + 1
    pairs = ((a, b) for a in firsts if a not in core for b in bs
             if b not in core and u.mul(a, b) != u.mul(b, a))
    for a, b in pairs:
        s = u.closure((a, b), cap=least - 1)
        if s is not None and t % len(s) != 0:
            least = len(s)
            if least == 6:
                break
    if least > G.order // 2:
        return True, ""
    return False, f"subgroup of order {least} is not pi-closed"


def _maximals_pi_closed(G: PermGroup, pi: PiSet) -> tuple[bool, str]:
    """Whether every maximal subgroup has a normal Hall pi-part, read off the
    subgroup lattice.  The property passes to subgroups, so above the
    lattice's caps every proper subgroup is asked instead, by a scan of the
    pairs of pi-elements (``_pairs_pi_closed``); its witness is a non-closed
    subgroup of least order.  The count cap may be decided from a count of
    the subgroups over an elementary abelian layer, with no lattice search
    (``group._refuse_past_the_count_cap``); either refusal sends the
    question to the scan.  The scan skips the pairs that meet O_pi(G),
    whose joins lie in O_pi(G)<a> or O_pi(G)<b> and so are pi-groups, and
    stops at order 6: a join of pi-elements that is not a pi-group is not
    nilpotent, and every group of order below 6 is.  Both routes read pi
    only through t, the pi-part of |G|, so the answer is cached on G per t:
    two partitions that yield the same primes share it."""
    def compute():
        try:
            for m in maximal_subgroups(G):
                if not _pi_closed_indices(G, m.indices, pi):
                    return False, f"maximal subgroup of order {m.order} is not pi-closed"
            return True, ""
        except ResourceLimitError:
            return _pairs_pi_closed(G, pi)
    return _memo(G, ("maximals_pi_closed", pi_part(G.order, pi.classes)), compute)


def verify_prop_1_11(G: PermGroup, sigma: SigmaPartition, pi: PiSet,
                     group_tag: str = "G") -> VerificationReport:
    """A soluble-for-sigma group that is minimally non-closed for pi (itself
    open, all maximal subgroups closed) is a Schmidt group closed for the
    complementary classes."""
    vertices, pi1 = _pi_vertices(G, sigma, pi)
    hypotheses = [CheckResult("sigma-soluble", is_sigma_soluble(G, sigma))]

    def skipped(*names):
        """Record the named hypotheses and the conclusion as not evaluated."""
        hypotheses.extend(CheckResult(n, True, "skipped", evaluated=False) for n in names)
        return make_report("prop-1.11", group_tag, sigma, hypotheses,
                           [CheckResult("schmidt-and-complement-closed", True,
                                        "skipped", evaluated=False)])

    if not hypotheses[0].holds:
        return skipped("not-pi-closed", "maximals-pi-closed")
    pi1_set = PiSet(pi1)
    open_for_pi = not is_pi_closed(G, pi1_set)
    hypotheses.append(CheckResult("not-pi-closed", open_for_pi,
                                  f"pi-part={pi_part(G.order, pi1)}"))
    if not open_for_pi:
        return skipped("maximals-pi-closed")
    maximals_closed, why = _maximals_pi_closed(G, pi1_set)
    hypotheses.append(CheckResult("maximals-pi-closed", maximals_closed, why))
    if not maximals_closed:
        return skipped()
    schmidt = is_schmidt(G)
    closed = is_pi_closed(G, PiSet(vertices - pi1))
    conclusions = [CheckResult(
        "schmidt-and-complement-closed", schmidt and closed,
        f"schmidt={schmidt} complement_closed={closed}")]
    return make_report("prop-1.11", group_tag, sigma, hypotheses, conclusions)


# ---------------------------------------------------------------------------
# sweep driver


ALL_STATEMENTS = ("1.2", "1.4", "1.7", "1.9", "1.11", "1.12")

# the sweep's dispatch tables, in stream order; dicts, so that a tracer that
# rebinds module-level names rebinds their values too
_PER_GROUP = {"1.2": verify_prop_1_2, "1.4": verify_thm_1_4, "1.12": verify_thm_1_12}
_PER_PI = {"1.9": verify_prop_1_9, "1.11": verify_prop_1_11}


def _pi_subsets(vertices) -> list[PiSet]:
    classes = sorted(vertices, key=lambda c: c.sort_key)
    out = []
    for mask in range(1 << len(classes)):
        out.append(frozenset(classes[k] for k in range(len(classes))
                             if mask >> k & 1))
    out.sort(key=lambda s: (len(s), tuple(sorted(c.tag for c in s))))
    return [PiSet(s) for s in out]


def run_corpus_sweep(groups, partitions, statements=ALL_STATEMENTS,
                     limits: EngineLimits = DEFAULT_LIMITS):
    """Deterministic report stream over (group, partition, statement) and,
    for the factorization statement, the shipped fixtures under each
    partition, after all groups; each given group is read under its own
    caps.  The fixtures are built once per call, under limits, when the
    stream reaches them, and every partition reads the same fixture groups.
    An id outside ALL_STATEMENTS raises DomainError when the stream is
    read."""
    unknown = sorted(set(statements) - set(ALL_STATEMENTS))
    if unknown:
        raise DomainError(f"unknown statement ids {unknown}")
    for tag, G in groups:
        for sigma in partitions:
            for sid, verify in _PER_GROUP.items():
                if sid in statements:
                    yield verify(G, sigma, tag)
            per_pi = [verify for sid, verify in _PER_PI.items() if sid in statements]
            subsets = _pi_subsets(sigma_of_group(G, sigma)) if per_pi else ()
            for verify in per_pi:
                for pi in subsets:
                    yield verify(G, sigma, pi, tag)
    if "1.7" in statements and partitions:
        fixtures = factorization_fixtures(limits)
        for sigma in partitions:
            for fx in fixtures:
                yield verify_thm_1_7(fx.group, fx.a, fx.b, fx.c, sigma, fx.tag)
