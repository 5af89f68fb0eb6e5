#!/usr/bin/env python3
"""Write golden.json: SHA-256 digests of the outputs the benchmark checks.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

* ``reports``: from the stream of ``sigmagraph verify --corpus --sigma
  standard``, one entry per (group tag, partition, statement) holding the
  number of report lines and the digest of those lines in stream order.
* ``graphs``: one digest per (group tag, partition, kind) of
  ``to_json(graph) + "\\n"``, built by the library on the zoo's groups.
* ``check``: the verdict counts of that stream, and the result of running
  the benchmark's own passes once over every corpus group (S6 included)
  against these digests.  Zero failures there shows that the benchmark's
  freshly built groups reproduce the ``verify --corpus`` stream, as a
  multiset of lines, and the graph outputs of ``sigmagraph graph``.

This takes a few minutes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from collections import defaultdict

import run
import workloads


def verify_stream() -> list[str]:
    from sigmagraph import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--corpus", "--sigma", "standard"])
    if code != 0:
        raise SystemExit(f"verify --corpus exited {code}")
    return out.getvalue().splitlines()


def report_digests(lines: list[str]) -> tuple[dict, dict]:
    from sigmagraph.sigma import SigmaPartition
    blocks: dict = defaultdict(list)
    verdicts = {"pass": 0, "vacuous": 0, "FAIL": 0}
    for line in lines[:-1]:
        report = json.loads(line)
        sk = workloads.sigma_key(SigmaPartition.from_json(report["sigma"]))
        blocks[(report["group"], sk, report["statement"])].append(line)
        verdicts[report["verdict"]] += 1
    summary = lines[-1]
    if summary != ("summary: pass={pass} vacuous={vacuous} FAIL={FAIL}"
                   .format(**verdicts)):
        raise SystemExit(f"summary line {summary!r} disagrees with {verdicts}")
    out: dict = {}
    for (tag, sk, sid), block in blocks.items():
        digest = hashlib.sha256("".join(l + "\n" for l in block).encode()).hexdigest()
        out.setdefault(tag, {}).setdefault(sk, {})[sid] = [len(block), digest]
    return out, {"reports": len(lines) - 1, **verdicts}


def graph_digests() -> dict:
    from sigmagraph.graphs import build_hall, build_hawkes, to_json
    from sigmagraph.group import DEFAULT_LIMITS
    from sigmagraph.zoo import corpus, standard_partitions
    builders = {"hawkes": build_hawkes, "hall": build_hall}
    out: dict = {}
    for tag, G in corpus():
        for sigma in standard_partitions():
            for kind in workloads.GRAPH_KINDS:
                text = to_json(builders[kind](G, sigma, DEFAULT_LIMITS, tag)) + "\n"
                out.setdefault(tag, {}).setdefault(workloads.sigma_key(sigma), {})[kind] = \
                    hashlib.sha256(text.encode()).hexdigest()
    return out


def main() -> int:
    run.use_checkout_source()
    run.fresh_import()
    lines = verify_stream()
    reports, verdicts = report_digests(lines)
    golden = {"reports": reports, "graphs": graph_digests()}

    specs = workloads.corpus_specs()
    sweep = workloads.sweep_pass(specs, golden)
    inline = [(tag, workloads.inline_spec(tag, d, g)) for tag, d, g in specs]
    graph = workloads.graph_pass(inline, random.Random(0), golden)
    golden["check"] = {
        "verify_corpus": verdicts,
        "benchmark_route": {
            "reports_checked": sweep.reports, "sweep_calls_failed": sweep.failed,
            "graph_calls_attempted": graph.attempted, "graph_calls_failed": graph.failed,
        },
        "source_sha256": run.source_digest(),
        "commit": run.git_commit(),
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(json.dumps(golden["check"], indent=1), file=sys.stderr)
    ok = (sweep.failed == 0 and graph.failed == 0 and verdicts["FAIL"] == 0
          and sweep.reports == verdicts["reports"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
