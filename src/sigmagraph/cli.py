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
above 256 or more than 64 generators is refused as a cap (``max_degree``,
``max_generators``) before any permutation is built, and one whose order
exceeds ``max_element_order`` (``--max-order``) as soon as the walk that
enumerates it finds one element more, so refusing a group above the cap
costs about as much as enumerating one at the cap.  A ``--pi`` or
partition-spec integer above 10**6 is refused (``max_prime``) before it is
factored.  Error messages are a single stderr line prefixed ``error:``.

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
from .group import DEFAULT_LIMITS, EngineLimits, PermGroup
from .perm import Permutation
from .predicates import (is_critical, is_pi_closed, is_schmidt,
                         is_sigma_dispersive, is_sigma_nilpotent,
                         is_sigma_soluble)
from .sigma import PiSet, SigmaPartition, parse_sigma_spec
from .verify import ALL_STATEMENTS, run_corpus_sweep
from .zoo import build_by_tag, corpus, standard_partitions, zoo

_BUILDERS = {"hawkes": build_hawkes, "hall": build_hall, "vm": build_vm}

# input caps on a group spec, checked before any permutation is built
_MAX_DEGREE = 256
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
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise GroupInputError("group spec needs an integer degree >= 1")
    expected = data.get("expected_order")
    if expected is not None and (not isinstance(expected, int) or isinstance(expected, bool)):
        raise GroupInputError("group spec expected_order must be an integer")
    name = data.get("name", tag)
    if not isinstance(name, str):
        raise GroupInputError("group spec name must be a string")
    if degree > _MAX_DEGREE:
        raise ResourceLimitError(f"group spec degree {degree} is too large",
                                 cap_name="max_degree", cap_value=_MAX_DEGREE)
    raw = data.get("generators")
    if not isinstance(raw, list):
        raise GroupInputError("group spec needs a generator list")
    if len(raw) > _MAX_GENERATORS:
        raise ResourceLimitError(f"group spec has {len(raw)} generators",
                                 cap_name="max_generators", cap_value=_MAX_GENERATORS)
    gens = [_parse_generator(entry, degree) for entry in raw]
    group = PermGroup(degree, gens, limits.max_element_order)
    if expected is not None and expected != group.order:
        raise GroupInputError(
            f"expected_order {expected} does not match computed order {group.order}")
    return name, group


def _load_group(spec: str, limits: EngineLimits) -> tuple[str, PermGroup]:
    spec = spec.strip()
    if spec.startswith("zoo:"):
        tag = spec[len("zoo:"):]
        G = build_by_tag(tag)
        # a group of its own, so nothing this call computes outlives it
        return tag, PermGroup(G.degree, G.generators, limits.max_element_order)
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
    graph = _BUILDERS[args.kind](G, sigma, limits, tag)
    if args.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        print(to_json(graph))
    return 0


def _cmd_check(args, limits: EngineLimits) -> int:
    tag, G = _load_group(args.group, limits)
    sigma = parse_sigma_spec(args.sigma)
    payload = {"group": tag, "order": G.order, "predicate": args.predicate,
               "sigma": sigma.to_json()}
    if args.predicate == "soluble":
        value = is_sigma_soluble(G, sigma, limits)
    elif args.predicate == "nilpotent":
        value = is_sigma_nilpotent(G, sigma, limits)
    elif args.predicate == "dispersive":
        value = is_sigma_dispersive(G, sigma, limits)
    elif args.predicate == "schmidt":
        value = is_schmidt(G, limits)
    elif args.predicate == "critical":
        value = is_critical(G, sigma, limits)
    else:  # pi-closed
        if not args.pi:
            raise GroupInputError("--pi is required for the pi-closed predicate")
        try:
            primes = tuple(int(tok) for tok in args.pi.split(","))
        except ValueError as exc:
            raise GroupInputError(f"bad --pi value {args.pi!r}") from exc
        classes = frozenset(sigma.classify(p) for p in primes)
        payload["pi"] = sorted(primes)
        value = is_pi_closed(G, PiSet(classes), limits)
    payload["value"] = value
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_verify(args, limits: EngineLimits) -> int:
    if args.statement == "all":
        statements = ALL_STATEMENTS
    elif args.statement in ALL_STATEMENTS:
        statements = (args.statement,)
    else:
        raise GroupInputError(f"unknown statement id {args.statement!r}")
    if args.corpus:
        groups = corpus()
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
    p.add_argument("--predicate", required=True,
                   choices=("soluble", "nilpotent", "dispersive", "schmidt",
                            "critical", "pi-closed"))
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
    p.add_argument("--statement", default="all",
                   help="all or one of " + "|".join(ALL_STATEMENTS))
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
