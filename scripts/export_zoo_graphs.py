#!/usr/bin/env python3
"""Export the three class graphs of every zoo group as DOT or JSON files.

Files land in --outdir as <tag>__<kind>__<partition>.<ext>, one per
(group, kind, partition) triple.  Groups whose subgroup lattice exceeds the
engine caps still export: the vm build reads Schmidt types off element pairs
and lists no subgroups.

Examples:
    python scripts/export_zoo_graphs.py --outdir graphs
    python scripts/export_zoo_graphs.py --kind hawkes --sigma atomic --format json
"""

import argparse
import sys
from pathlib import Path

from sigmagraph.cli import _BUILDERS, _load_partitions
from sigmagraph.graphs import to_dot, to_json
from sigmagraph.zoo import zoo


def partition_slug(sigma) -> str:
    if sigma.to_json()["atomic"]:
        return "atomic"
    classes = sigma.to_json()["classes"]
    return "c" + "_".join("".join(str(p) for p in cls) for cls in classes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="graphs_out")
    ap.add_argument("--format", choices=("dot", "json"), default="dot")
    ap.add_argument("--kind", choices=("all", *_BUILDERS), default="all")
    ap.add_argument("--sigma", default="standard",
                    help="'standard', 'atomic', or a JSON partition")
    args = ap.parse_args(argv)

    partitions = _load_partitions(args.sigma)
    kinds = tuple(_BUILDERS) if args.kind == "all" else (args.kind,)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    written = 0
    for entry in zoo():
        group = entry.build()
        for sigma in partitions:
            for kind in kinds:
                graph = _BUILDERS[kind](group, sigma, group_tag=entry.tag)
                # the bytes `sigmagraph graph` prints: to_dot ends in a newline
                text = to_dot(graph) if args.format == "dot" else to_json(graph) + "\n"
                name = f"{entry.tag}__{kind}__{partition_slug(sigma)}.{args.format}"
                (outdir / name).write_text(text)
                written += 1
        print(f"{entry.tag}: order {group.order}", file=sys.stderr)
    print(f"wrote {written} files to {outdir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
