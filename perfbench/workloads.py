"""Inputs and timed passes of the three benchmark workloads.

A pass is closed-loop and single-threaded: each call starts when the
previous one has returned.  Every pass rebuilds its groups with
``PermGroup(degree, generators)`` from plain image tuples made during set-up,
so no per-group cache survives from one pass to the next, and it never goes
through ``zoo.build_by_tag`` or ``zoo.corpus``.

sigmagraph is imported inside the functions below, not at module level,
because set-up re-imports the package for each timed repetition.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import time

HEAVY_TAGS = ("A6", "wreath_c2_s3")
# left out of both sweeps because it would make a sweep_heavy run about 70 s:
# its route (order cap, then two-generated fallback) is the fallback that
# wreath_c2_s3 takes after its count cap
LEFT_OUT_TAGS = ("S6",)
PER_GROUP_STATEMENTS = ("1.2", "1.4", "1.9", "1.11", "1.12")
GRAPH_KINDS = ("hawkes", "hall")
FIXTURES = "1.7-fixtures"  # the block of factorization fixtures in a sweep


def sigma_key(sigma) -> str:
    """Short stable name of a partition: 'atomic', '2+3', '2+5/3'."""
    if sigma.atomic:
        return "atomic"
    return "/".join("+".join(map(str, sorted(c))) for c in sigma.explicit_classes)


def sigma_spec(sigma) -> str:
    """The partition as the CLI's --sigma argument."""
    if sigma.atomic:
        return "atomic"
    return json.dumps({"classes": [sorted(c) for c in sigma.explicit_classes]})


def corpus_specs() -> list[tuple[str, int, tuple]]:
    """(tag, degree, generator image tuples) for all 182 corpus groups in
    corpus order, built from the zoo's builders and the subgroup lattice of
    S5 without touching the zoo's own cache."""
    from sigmagraph.group import DEFAULT_LIMITS, all_subgroups
    from sigmagraph.zoo import symmetric, zoo

    def spec(tag, g):
        return tag, g.degree, tuple(p.images for p in g.generators)

    named = [spec(e.tag, e.builder()) for e in zoo()]
    subs = all_subgroups(symmetric(5), DEFAULT_LIMITS)
    return named + [spec(f"S5_sub_{k:03d}", s.group)
                    for k, s in enumerate(subs) if s.order > 1]


def build_inputs(workload: str, smoke_tags=None) -> list:
    """Everything a pass needs, made once per set-up.  With smoke_tags, only
    those corpus groups, whatever the workload."""
    if workload not in ("sweep_light", "sweep_heavy", "graph_cold"):
        raise ValueError(f"unknown workload {workload!r}")
    if smoke_tags is not None:
        specs = [s for s in corpus_specs() if s[0] in smoke_tags]
    elif workload == "sweep_heavy":
        from sigmagraph.zoo import zoo
        specs = [(e.tag, g.degree, tuple(p.images for p in g.generators))
                 for e in zoo() if e.tag in HEAVY_TAGS for g in [e.builder()]]
    elif workload == "sweep_light":
        skip = set(HEAVY_TAGS) | set(LEFT_OUT_TAGS)
        specs = [s for s in corpus_specs() if s[0] not in skip]
    else:
        specs = corpus_specs()
    if workload == "graph_cold":
        return [(tag, inline_spec(tag, degree, gens)) for tag, degree, gens in specs]
    return specs


def inline_spec(tag: str, degree: int, gens) -> str:
    """CLI group spec: inline JSON with 1-based cycles."""
    from sigmagraph.perm import Permutation
    cycles = [[[x + 1 for x in c] for c in Permutation(g).cycles()] for g in gens]
    return json.dumps({"name": tag, "degree": degree, "generators": cycles})


def _run(fn) -> None:
    fn()


class PassResult:
    """What one pass measured and checked; times are in clock() seconds."""

    def __init__(self):
        self.begin = self.end = 0.0  # clock() at the start and end of the pass
        self.starts: list[float] = []     # per op: clock() at its start
        self.latencies: list[float] = []  # per op
        self.groups: list[tuple[str, float, float]] = []  # (tag, begin, end)
        self.attempted = 0  # ops
        self.failed = 0
        self.reports = 0    # report lines checked (sweeps)
        self.errors: list[str] = []
        # reference speed over measured speed, set by the runner
        self.scale = 1.0
        self.group_scales: list[float] = []
        self.op_scales: list[float] = []

    @property
    def wall_s(self) -> float:
        return self.end - self.begin

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def sweep_pass(inputs, golden: dict, tracer=None, with_fixtures=True,
               clock=time.perf_counter) -> PassResult:
    """The verdict stream over the given groups, in the order of
    ``sigmagraph verify --corpus``.

    An op is one group: one ``run_corpus_sweep`` call over the standard
    partitions, which is what ``sigmagraph verify --group G`` runs.  The 1.7
    fixtures are one more call, at the end.  The order is fixed because a
    group's cyclic garbage is collected while the next group runs, which
    sets the peak RSS.  Reports are checked per (group, partition,
    statement) against golden digests.
    """
    from sigmagraph.group import PermGroup
    from sigmagraph.perm import Permutation
    from sigmagraph.verify import run_corpus_sweep
    from sigmagraph.zoo import standard_partitions

    reports = golden["reports"]
    partitions = standard_partitions()
    items = list(inputs) + ([FIXTURES] if with_fixtures else [])
    res = PassResult()
    res.begin = clock()
    for item in items:
        if tracer is not None:
            tracer.new_block()
        t_group = clock()
        if item == FIXTURES:
            tag = FIXTURES
            expected = {(t, sk, sid): entry for t, by_sigma in reports.items()
                        for sk, by_sid in by_sigma.items()
                        for sid, entry in by_sid.items() if sid == "thm-1.7"}
            stream = run_corpus_sweep([], partitions, ("1.7",))
        else:
            tag, degree, gens = item
            expected = {(tag, sk, sid): entry for sk, by_sid in reports[tag].items()
                        for sid, entry in by_sid.items()}
            G = PermGroup(degree, [Permutation(g) for g in gens])
            stream = run_corpus_sweep([(tag, G)], partitions, PER_GROUP_STATEMENTS)
            del G
        _check_call(res, tag, stream, expected, clock)
        res.groups.append((tag, t_group, clock()))
        del stream
    res.end = clock()
    return res


def _check_call(res: PassResult, name: str, stream, expected: dict, clock) -> None:
    """Drain one report stream as one timed op and compare the digests of
    each (group, partition, statement) block in it."""
    hashes = {key: hashlib.sha256() for key in expected}
    counts = dict.fromkeys(expected, 0)
    fails, why = 0, None
    t0 = clock()
    try:
        for report in stream:
            key = (report.group_tag, sigma_key(report.sigma), report.statement_id)
            if key not in hashes:
                why = f"unexpected report {key}"
                break
            hashes[key].update(report.to_json().encode() + b"\n")
            counts[key] += 1
            fails += report.verdict == "FAIL"
    except Exception as exc:  # an escaped exception fails the call
        why = f"{name}: {type(exc).__name__}: {exc}"
    res.starts.append(t0)
    res.latencies.append(clock() - t0)
    res.attempted += 1
    res.reports += sum(counts.values())
    if why is None:
        bad = [key for key, (n, digest) in expected.items()
               if counts[key] != n or hashes[key].hexdigest() != digest]
        if bad:
            why = f"digest mismatch {bad[:3]}"
        elif fails:
            why = f"{name}: {fails} FAIL verdicts"
    if why is not None:
        res.fail(why)


def graph_pass(inputs, rng, golden: dict, tracer=None,
               clock=time.perf_counter, untimed=_run) -> PassResult:
    """Single ``sigmagraph graph`` calls through ``cli.main``, stdout captured.

    Groups are shuffled, and so are the (partition, kind) calls of each
    group; every call parses its group afresh from inline JSON, so the order
    does not change the work.  After each call its garbage is collected
    through ``untimed``, so that every call starts from a clean heap, as a
    call in its own process would, and the peak RSS does not depend on the
    order.  Each call is one op, checked against the golden digest of
    (group, partition, kind).
    """
    from sigmagraph import cli
    from sigmagraph.zoo import standard_partitions

    graphs = golden["graphs"]
    pairs = [(sigma, kind) for sigma in standard_partitions() for kind in GRAPH_KINDS]
    items = list(inputs)
    rng.shuffle(items)
    res = PassResult()
    res.begin = clock()
    for tag, spec in items:
        t_group = clock()
        for sigma, kind in rng.sample(pairs, len(pairs)):
            if tracer is not None:
                tracer.new_block()
            sk = sigma_key(sigma)
            argv = ["graph", "--group", spec, "--sigma", sigma_spec(sigma), "--kind", kind]
            out, err = io.StringIO(), io.StringIO()
            res.attempted += 1
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:
                res.fail(f"{tag} {sk} {kind}: {type(exc).__name__}: {exc}")
                continue
            finally:
                res.starts.append(t0)
                res.latencies.append(clock() - t0)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            if code != 0:
                res.fail(f"{tag} {sk} {kind}: exit {code}: {err.getvalue().strip()}")
            elif digest != graphs[tag][sk][kind]:
                res.fail(f"digest mismatch {tag} {sk} {kind}")
            del out, err
            untimed(gc.collect)
        res.groups.append((tag, t_group, clock()))
    res.end = clock()
    return res
