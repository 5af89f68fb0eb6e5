#!/usr/bin/env python3
"""Benchmark of sigmagraph's verdict stream and single graph calls.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_light --seed 1 --seconds 12 --trace 0

Workloads (see README.md in this directory):

    sweep_light  the verdict stream over the 24 light zoo groups, the 155
                 nontrivial subgroups of S5 and the 1.7 fixtures
    sweep_heavy  the verdict stream over A6 and wreath_c2_s3
    graph_cold   hawkes and hall graphs of all 182 corpus groups, one
                 ``sigmagraph graph`` call each through ``cli.main``

A run sets up its inputs several times (re-importing sigmagraph each time)
and reports the median as ``setup_s``.  It then repeats whole passes, each
on freshly built groups, until ``--seconds`` have elapsed; a pass is never
cut short, so a workload whose pass is longer than ``--seconds`` measures
one pass.  Every reported time is the median over passes, scaled to a
reference machine speed (speed.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from spans around calls into
the library (tracing.py), and the spans are written to ``perfbench/out/``.
The line before it is a provenance stamp.  The run checks every output
against golden.json and exits 2 without a result if sigmagraph's source is
not next to this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("sweep_light", "sweep_heavy", "graph_cold")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0  # a set-up of a few milliseconds is repeated more often
TAIL_PERCENTILES = (99.9, 99, 95, 90, 85, 80, 75, 50)
SMOKE_TAGS = ("S3", "S4", "C30")
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "group_max_s": "s", "peak_rss_mb": "MB",
}


def repeatable_interpreter() -> None:
    """Re-exec this process once with a fixed string-hash seed and without
    address-space randomisation.

    sigmagraph iterates over sets of partition classes, and some of those
    loops stop early.  The order of such a set follows string hashes and,
    before Python 3.12, ``hash(None)``, which is the address of None.  So the
    work, and the per-layer call counts, would change from run to run.
    """
    if os.environ.get("PERFBENCH_REEXEC") == "1":
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):  # no personality(2) here: hashes only
        pass
    env = {**os.environ, "PYTHONHASHSEED": HASH_SEED, "PERFBENCH_REEXEC": "1"}
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def address_randomisation() -> bool:
    try:
        persona = ctypes.CDLL(None).personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return True
    return persona == -1 or not persona & ADDR_NO_RANDOMIZE


def use_checkout_source() -> None:
    """Import sigmagraph from this checkout's src/, or stop with exit 2."""
    if not (SRC / "sigmagraph" / "__init__.py").is_file():
        print(f"error: no sigmagraph source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def fresh_import() -> None:
    for name in [m for m in sys.modules if m == "sigmagraph" or m.startswith("sigmagraph.")]:
        del sys.modules[name]
    module = importlib.import_module("sigmagraph")
    importlib.import_module("sigmagraph.cli")  # not imported by the package
    if not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"sigmagraph imported from {module.__file__}, not {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sigmagraph").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile that leaves at least ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= 10:
            return q
    return 50


def setup(workload: str, smoke: bool, probe):
    """Median of import plus input building, at the reference speed, over
    SETUP_REPEATS repetitions or as many as fill SETUP_MIN_S."""
    import workloads
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < 50):
        t0 = probe.clock()
        fresh_import()
        inputs = workloads.build_inputs(workload, SMOKE_TAGS if smoke else None)
        t1 = probe.clock()
        times.append((t1 - t0) * probe.scale(t0, t1))
    return statistics.median(times), inputs


def run_passes(workload: str, inputs, seed: int, seconds: float, golden: dict,
               probe, tracer=None):
    """Whole passes until the time is up; per-layer aggregates if traced."""
    import workloads
    rng = random.Random(seed)
    passes, layers = [], []
    deadline = probe.clock() + seconds
    while True:
        begin = tracer.mark() if tracer else None
        if workload == "graph_cold":
            res = workloads.graph_pass(inputs, rng, golden, tracer, clock=probe.clock,
                                       untimed=probe.untimed)
        else:
            res = workloads.sweep_pass(inputs, golden, tracer,
                                       with_fixtures=workload == "sweep_light",
                                       clock=probe.clock)
        res.scale = probe.scale(res.begin, res.end)
        res.group_scales = [probe.scale(b, e) for _, b, e in res.groups]
        res.op_scales = [probe.scale(t, t + d) for t, d in zip(res.starts, res.latencies)]
        if tracer:
            layers.append(tracer.aggregate(begin, tracer.mark()))
        passes.append(res)
        if probe.clock() >= deadline:
            return passes, layers


def end_to_end(passes) -> tuple[dict, dict]:
    """Per-pass figures at the reference speed, then medians over passes.
    A pass, a group and an op each use the speed sampled around them."""
    n = len(passes[0].latencies)
    q = tail_percentile(n)
    walls, rates, p50s, tails, maxes = [], [], [], [], []
    for p in passes:
        lat = sorted(x * k for x, k in zip(p.latencies, p.op_scales))
        group_times = [((end - begin) * k, tag)
                       for (tag, begin, end), k in zip(p.groups, p.group_scales)]
        walls.append(p.wall_s * p.scale)
        rates.append(len(lat) / walls[-1])
        p50s.append(percentile(lat, 50))
        tails.append(percentile(lat, q))
        maxes.append(max(group_times))
    values = {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(p50s) * 1000,
        "op_tail_ms": statistics.median(tails) * 1000,
        "group_max_s": statistics.median(t for t, _ in maxes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"op_tail_percentile": q, "op_samples_per_pass": n,
             "group_max_tags": [tag for _, tag in maxes]}
    return values, extra


def per_layer(passes, layers: list[dict]) -> tuple[dict, list[str]]:
    """Counts must repeat exactly in every pass; times are pass medians at
    the reference speed."""
    from tracing import per_layer_metric_names
    problems = []
    for key in [k for k in layers[0] if k.endswith(".calls") or k == "_universe_misses"]:
        seen = {layer[key] for layer in layers}
        if len(seen) > 1:
            problems.append(f"{key} differs between passes: {sorted(seen)}")
    values = {}
    for name in per_layer_metric_names():
        if name.endswith("_s"):
            values[name] = statistics.median(layer[name] * p.scale
                                             for p, layer in zip(passes, layers))
        elif name.endswith(".calls"):
            values[name] = layers[0][name]
        else:
            values[name] = statistics.median(layer[name] for layer in layers)
    values["trace.wall_s"] = statistics.median(p.wall_s * p.scale for p in passes)
    return values, problems


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def main(argv=None) -> int:
    repeatable_interpreter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"run on {', '.join(SMOKE_TAGS)} only (self-test)")
    ap.add_argument("--golden", type=Path, default=GOLDEN,
                    help="digest file to check outputs against")
    args = ap.parse_args(argv)

    use_checkout_source()
    sys.path.insert(0, str(HERE))
    from speed import SpeedProbe
    golden = json.loads(args.golden.read_text())

    with SpeedProbe() as probe:
        setup_s, inputs = setup(args.workload, args.smoke, probe)
        # keep the benchmark's own objects (golden digests, inputs) out of
        # the collections the program's allocations trigger
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(clock=probe.clock)
            tracer.install()
        t0 = probe.clock()
        passes, layers = run_passes(args.workload, inputs, args.seed, args.seconds,
                                    golden, probe, tracer)
        measured = probe.clock() - t0
    if tracer:
        tracer.uninstall()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [e for p in passes for e in p.errors][:5]
    if args.trace:
        metrics, layer_problems = per_layer(passes, layers)
        problems += layer_problems
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.txt"
        tracer.dump(spans)
        extra = {"spans_file": str(spans.relative_to(ROOT)),
                 "spans": len(tracer.ids), "nesting_errors": tracer.check_nesting(),
                 "universe_misses_per_pass": layers[0]["_universe_misses"]}
        if extra["nesting_errors"]:
            problems.append(f"{extra['nesting_errors']} spans outside their parent")
    else:
        metrics, extra = end_to_end(passes)
        metrics = {"setup_s": setup_s, **metrics}

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": len(passes),
        "measured_s": measured, "ops_per_pass": len(passes[0].latencies),
        "reports_per_pass": passes[0].reports,
        "raw_wall_s": [p.wall_s for p in passes],
        "speed_scale": [p.scale for p in passes],
        "speed_samples": len(probe.kernel),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        **extra, "problems": problems,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "address_randomisation": address_randomisation(),
        "commit": git_commit(), "source_sha256": source_digest(),
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
