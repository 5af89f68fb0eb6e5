"""Command line front end.

Groups come from the zoo (``zoo:TAG``), inline JSON, or a JSON file with the
shape ``{"degree": n, "generators": [...], "expected_order": m}``.  Each
generator is a cycle or a list of cycles over 1-based points, so
``[[1,2],[1,2,3,4]]`` gives the two standard generators of S4.  Partition
specs are ``atomic`` or JSON like ``{"classes": [[2, 3], [5]]}`` (primes not
listed form the residual class).

Exit codes: 0 for success (including vacuous verifications), 1 when a
verification reports FAIL, 2 for input errors, domain errors, and resource
caps.  A cap option below 1 is an input error.  A group spec with a degree
above 256 (``group.MAX_DEGREE``, since an element's images are bytes) or
more than 64 generators is refused as a cap (``max_degree``,
``max_generators``) before any permutation is built, and one whose order
exceeds ``max_element_order`` (``--max-order``) as soon as the walk that
enumerates it finds one element more, so refusing a group above the cap
costs about as much as enumerating one at the cap; a ``zoo:TAG`` group is
refused from the zoo's order, before any walk.  Every group a call
decides, each corpus group and each Theorem 1.7 fixture included, is built
under the call's caps and decided under them; the corpus's membership (the
zoo and S5's 155 nontrivial subgroups) is fixed set-up, found under the
default caps whatever the call's caps.  A ``--pi`` or partition-spec
integer above 10**6 is refused (``max_prime``) before it is factored.
Error messages are a single stderr line prefixed ``error:``.

``main`` can be called many times in one process: it builds the parser on
its first call and reuses it, and each call parses into a fresh namespace
and parses its partitions afresh.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .errors import (CrossCheckError, DomainError, GroupInputError,
                     ResourceLimitError)
from .graphs import build_hall, build_hawkes, build_vm, to_dot, to_json
from .group import DEFAULT_LIMITS, MAX_DEGREE, EngineLimits, PermGroup
from .perm import Permutation
from .predicates import (is_critical, is_pi_closed, is_schmidt,
                         is_sigma_dispersive, is_sigma_nilpotent,
                         is_sigma_soluble)
from .sigma import PiSet, SigmaPartition, _is_int, parse_sigma_spec
from .verify import ALL_STATEMENTS, run_corpus_sweep
from .zoo import build_by_tag, corpus, standard_partitions, zoo

_BUILDERS = {"hawkes": build_hawkes, "hall": build_hall, "vm": build_vm}
# the check predicates but pi-closed, which reads --pi; schmidt takes no sigma
_PREDICATES = {"soluble": is_sigma_soluble, "nilpotent": is_sigma_nilpotent,
               "dispersive": is_sigma_dispersive,
               "schmidt": lambda G, sigma: is_schmidt(G),
               "critical": is_critical}

# input caps on a group spec, checked before any permutation is built; the
# degree cap is the library's (``group.MAX_DEGREE``)
_MAX_GENERATORS = 64


def _parse_generator(entry, degree: int) -> Permutation:
    if not isinstance(entry, list):
        raise GroupInputError("each generator must be a cycle or a list of cycles")
    if all(isinstance(x, int) for x in entry):
        cycles = [entry] if entry else []
    elif all(isinstance(x, list) for x in entry):
        cycles = entry
    else:
        raise GroupInputError("generator mixes points and cycles")
    return Permutation.from_cycles(degree, cycles, one_based=True)


def _group_from_json(data, tag: str, limits: EngineLimits) -> tuple[str, PermGroup]:
    if not isinstance(data, dict):
        raise GroupInputError("group spec must be a JSON object")
    unknown = sorted(set(data) - {"degree", "generators", "expected_order", "name"})
    if unknown:
        raise GroupInputError(f"group spec has unknown keys {unknown}")
    degree = data.get("degree")
    if not _is_int(degree) or degree < 1:
        raise GroupInputError("group spec needs an integer degree >= 1")
    expected = data.get("expected_order")
    if expected is not None and not _is_int(expected):
        raise GroupInputError("group spec expected_order must be an integer")
    name = data.get("name", tag)
    if not isinstance(name, str):
        raise GroupInputError("group spec name must be a string")
    if degree > MAX_DEGREE:
        raise ResourceLimitError(f"group spec degree {degree} is too large",
                                 cap_name="max_degree", cap_value=MAX_DEGREE)
    raw = data.get("generators")
    if not isinstance(raw, list):
        raise GroupInputError("group spec needs a generator list")
    if len(raw) > _MAX_GENERATORS:
        raise ResourceLimitError(f"group spec has {len(raw)} generators",
                                 cap_name="max_generators", cap_value=_MAX_GENERATORS)
    gens = [_parse_generator(entry, degree) for entry in raw]
    group = PermGroup(degree, gens, limits)
    if expected is not None and expected != group.order:
        raise GroupInputError(
            f"expected_order {expected} does not match computed order {group.order}")
    return name, group


def _load_group(spec: str, limits: EngineLimits) -> tuple[str, PermGroup]:
    spec = spec.strip()
    if spec.startswith("zoo:"):
        tag = spec[len("zoo:"):]
        return tag, build_by_tag(tag, limits)
    if spec.startswith("{"):
        return _group_from_json(_json_spec(spec, "bad group spec"), "inline", limits)
    path = Path(spec)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupInputError(f"cannot read group spec file {spec}: {exc}") from exc
    return _group_from_json(_json_spec(text, f"bad group spec in {spec}"), path.stem, limits)


def _json_spec(text: str, what: str):
    """The JSON value of a group spec.  Nesting too deep for the decoder and
    an integer past Python's 4300-digit conversion limit are input errors
    too, not tracebacks."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GroupInputError(f"{what}: {exc}") from exc


def _load_partitions(spec: str) -> tuple[SigmaPartition, ...]:
    if spec == "standard":
        return standard_partitions()
    return (parse_sigma_spec(spec),)


def _require_nontrivial(G: PermGroup) -> None:
    if G.is_trivial:
        raise DomainError("the trivial group has no class graph; "
                          "give a group of order > 1")


def _limits(args) -> EngineLimits:
    limits = DEFAULT_LIMITS
    if args.max_subgroup_order is not None:
        limits = dataclasses.replace(limits,
                                     max_subgroup_order=args.max_subgroup_order)
    if args.max_order is not None:
        limits = dataclasses.replace(limits, max_element_order=args.max_order)
    return limits


def _cmd_graph(args, limits: EngineLimits) -> int:
    tag, G = _load_group(args.group, limits)
    _require_nontrivial(G)
    sigma = parse_sigma_spec(args.sigma)
    graph = _BUILDERS[args.kind](G, sigma, group_tag=tag)
    if args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        print(to_json(graph))
    return 0


def _cmd_check(args, limits: EngineLimits) -> int:
    if args.predicate in _PREDICATES and args.pi is not None:
        raise GroupInputError(f"--pi applies to the pi-closed predicate, "
                              f"not to {args.predicate}")
    tag, G = _load_group(args.group, limits)
    sigma = parse_sigma_spec(args.sigma)
    payload = {"group": tag, "order": G.order, "predicate": args.predicate,
               "sigma": sigma.to_json()}
    if args.predicate in _PREDICATES:
        value = _PREDICATES[args.predicate](G, sigma)
    else:  # pi-closed
        if not args.pi:
            raise GroupInputError("--pi is required for the pi-closed predicate")
        # ASCII digits only, as a partition spec's JSON reads its integers
        tokens = [tok.strip() for tok in args.pi.split(",")]
        try:
            if not all(tok.isascii() and tok.isdigit() for tok in tokens):
                raise ValueError("give comma-separated primes")
            primes = sorted({int(tok) for tok in tokens})
        except ValueError as exc:  # also an integer past 4300 digits
            raise GroupInputError(f"bad --pi value {args.pi!r}: {exc}") from exc
        classes = frozenset(sigma.classify(p) for p in primes)
        payload["pi"] = primes
        value = is_pi_closed(G, PiSet(classes))
    payload["value"] = value
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_verify(args, limits: EngineLimits) -> int:
    statements = ALL_STATEMENTS if args.statement == "all" else (args.statement,)
    if args.corpus:
        # each rebuilt under this call's caps as the stream reaches it
        groups = ((tag, PermGroup(G.degree, G.generators, limits)) for tag, G in corpus())
    else:
        tag, G = _load_group(args.group, limits)
        _require_nontrivial(G)
        groups = [(tag, G)]
    partitions = _load_partitions(args.sigma)
    counts = {"pass": 0, "vacuous": 0, "FAIL": 0}
    for report in run_corpus_sweep(groups, partitions, statements, limits):
        print(report.to_json())
        counts[report.verdict] += 1
    print(f"summary: pass={counts['pass']} vacuous={counts['vacuous']} "
          f"FAIL={counts['FAIL']}")
    return 1 if counts["FAIL"] else 0


def _cmd_zoo(args, limits: EngineLimits) -> int:
    for entry in zoo():
        print(json.dumps({"tag": entry.tag, "order": entry.expected_order},
                         sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sigmagraph",
                     description="Class-partition graphs of finite groups.")
    parser.add_argument("--max-subgroup-order", type=int, default=None,
                        help="cap on subgroup orders enumerated in lattices")
    parser.add_argument("--max-order", type=int, default=None,
                        help="cap on group orders enumerated element by element")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="print one graph of one group")
    p.add_argument("--group", required=True,
                   help="zoo:TAG, inline JSON, or path to a JSON group spec")
    p.add_argument("--sigma", default="atomic",
                   help="'atomic' or JSON partition spec (default atomic)")
    p.add_argument("--kind", required=True, choices=sorted(_BUILDERS))
    p.add_argument("--format", default="json", choices=("json", "dot"))
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("check", help="evaluate one predicate on one group")
    p.add_argument("--group", required=True)
    p.add_argument("--sigma", default="atomic")
    p.add_argument("--predicate", required=True, choices=(*_PREDICATES, "pi-closed"))
    p.add_argument("--pi", default=None,
                   help="comma-separated primes naming classes (pi-closed only)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run statement verifiers, one JSON "
                                      "report per line plus a summary line")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", help="single group spec")
    source.add_argument("--corpus", action="store_true",
                        help="run the built-in corpus")
    p.add_argument("--sigma", default="standard",
                   help="'standard' (three partitions), 'atomic', or JSON")
    p.add_argument("--statement", default="all", choices=("all", *ALL_STATEMENTS))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("zoo", help="list built-in groups as JSON lines")
    p.set_defaults(func=_cmd_zoo)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than most
    graph calls, and parse_args gives every call a fresh Namespace."""
    return _build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, _limits(args))
    except (GroupInputError, DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
