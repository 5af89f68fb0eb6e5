#!/usr/bin/env python3
"""Alternating before/after runs of perfbench/run.py from two checkouts.

Run from anywhere, with a checkout of the parent commit and one of the
change, each a plain clone of the committed files:

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workload sweep_heavy --workload sweep_light --seeds 101-110 \\
        --seconds 12 --trace-workload sweep_heavy --out BENCH_3.json \\
        --description "what the change does"

For each workload and seed, ``perfbench/run.py --trace 0`` runs once in each
checkout, one pair per seed.  The parent runs first on even pair indices
and the change first on odd ones, so a drift of the host's speed falls on
both sides alike.  The output records, per end-to-end metric, the values
of every run, the median and the interquartile range (inclusive quartiles)
of each side, and the number of pairs in which the change is better; the
direction of "better" is read from the change's BENCHMARK.json.  Beside
them, under ``speed_probe``, it records for each side the speed probe of
every run, read from the stamp line that run.py prints before its result:
the median over the run's passes of ``speed_scale`` (by which the times are
scaled) and of ``raw_wall_s`` (the unscaled wall time of a pass).  With
``--trace-workload``, repeatable, one ``--trace 1`` pass per side on each
such workload (the first seed) adds every per-layer metric of both sides,
and whether every ``.calls`` count is equal.

Both sides must run the same benchmark: the script refuses, before any
run, two checkouts whose ``BENCHMARK.json`` or ``perfbench/`` files (its
``out/`` and ``__pycache__`` left aside) differ, by a sha256 digest over
them, and records that digest in the output as ``benchmark_sha256``.

A run that fails, or whose outputs do not match the golden digests, stops
the script with exit status 1; no partial file is written.  Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = Path("perfbench") / "run.py"
PROBE = ("speed_scale", "raw_wall_s")  # per-pass lists in run.py's stamp line


def parse_seeds(spec: str) -> list[int]:
    """'41-50' or '3,7,9' (or a mix) as a list of ints, in order."""
    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def checkout(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / RUNNER).is_file():
        raise SystemExit(f"{root} has no {RUNNER}")
    return root


def bench_digest(root: Path) -> str:
    """sha256 over BENCHMARK.json and the files of perfbench/, each taken
    as its relative path and the sha256 of its bytes, in path order; the run
    outputs under perfbench/out/ and __pycache__ directories are left out."""
    bench = root / "perfbench"
    files = [root / "BENCHMARK.json"] + sorted(
        f for f in bench.rglob("*") if f.is_file()
        and f.relative_to(bench).parts[0] != "out" and "__pycache__" not in f.parts)
    h = hashlib.sha256()
    for f in files:
        h.update(f"{f.relative_to(root).as_posix()} "
                 f"{hashlib.sha256(f.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


def commit_of(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """The metric values of one run, {name: value}, and its speed probe,
    {name: the median over its passes} for each name of PROBE."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"{' '.join(cmd)} in {root} was not correct: {lines[-2:]}")
    stamp = json.loads(lines[-2])["stamp"]
    return ({name: m["value"] for name, m in result["metrics"].items()},
            {name: statistics.median(stamp[name]) for name in PROBE})


def summary(values: list[float]) -> tuple[float, float]:
    """Median and inclusive interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def better(change: float, parent: float, direction: str) -> bool:
    return change < parent if direction == "lower" else change > parent


def compare(runs: dict, units: dict, directions: dict) -> dict:
    """Per-metric record in the BENCH_*.json schema."""
    out = {}
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p_med, p_iqr = summary(parent)
        c_med, c_iqr = summary(change)
        out[name] = {
            "unit": units[name],
            "parent": [round(v, 5) for v in parent],
            "change": [round(v, 5) for v in change],
            "parent_median": round(p_med, 5), "parent_iqr": round(p_iqr, 5),
            "change_median": round(c_med, 5), "change_iqr": round(c_iqr, 5),
            "change_better_pairs": sum(better(c, p, directions[name])
                                       for p, c in zip(parent, change)),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of perfbench/run.py; repeat for several")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one pair per seed, e.g. 101-110")
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace-workload", action="append", default=[],
                    help="also one --trace 1 pass per side on it; repeat for several")
    ap.add_argument("--description", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": checkout(args.parent), "change": checkout(args.change)}
    digests = {side: bench_digest(root) for side, root in sides.items()}
    if digests["parent"] != digests["change"]:
        raise SystemExit(f"the checkouts run different benchmarks: BENCHMARK.json or "
                         f"perfbench/ differ (sha256 {digests['parent']} vs "
                         f"{digests['change']})")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    doc = {
        "description": args.description,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "commits": {side: commit_of(root) for side, root in sides.items()},
        "benchmark_sha256": digests["change"],
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(),
                 "note": "times scaled by perfbench/speed.py"},
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        probes = {side: {name: [] for name in PROBE} for side in runs}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
                metrics, probe = run_once(sides[side], workload, seed, args.seconds, 0)
                runs[side].append(metrics)
                for name in PROBE:
                    probes[side][name].append(round(probe[name], 5))
        doc["workloads"][workload] = {"seeds": args.seeds,
                                      "metrics": compare(runs, units, directions),
                                      "speed_probe": probes}
    for workload in args.trace_workload:
        seed = args.seeds[0]
        traced = {}
        for side in ("parent", "change"):
            print(f"{workload} seed {seed} {side} --trace 1", file=sys.stderr, flush=True)
            traced[side], _ = run_once(sides[side], workload, seed, args.seconds, 1)
        doc[f"{workload}_trace1"] = {
            "command": f"python3 perfbench/run.py --workload {workload} "
                       f"--seed {seed} --seconds {args.seconds:g} --trace 1",
            "calls_equal": all(traced["parent"][k] == traced["change"][k]
                               for k in traced["parent"] if k.endswith(".calls")),
            "spans": {k: {"parent": [round(traced["parent"][k], 5)],
                          "change": [round(traced["change"][k], 5)]}
                      for k in traced["parent"]},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
