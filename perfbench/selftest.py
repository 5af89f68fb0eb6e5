#!/usr/bin/env python3
"""Self-test of the benchmark on S3, S4 and C30 (``run.py --smoke``).

Run from the repository root; it takes about a minute:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that a wrong golden digest shows up as failed ops, that traced spans
nest inside their parents, that per-layer call counts repeat exactly across
two traced runs with different seeds, and that the benchmark refuses to run
without sigmagraph's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, *, trace: int = 0, seed: int = 1, golden: Path | None = None,
          cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> tuple[dict, dict]:
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        cls.workloads = [w["name"] for w in SPEC["workloads"]]

    def check_metrics(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_printed_with_unit(self):
        for workload in self.workloads:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(workload, trace=trace)
                    self.assertEqual(code, 0)
                    stamp, result = result_of(lines)
                    self.check_metrics(result, declared)
                    self.assertTrue(result["correct"], stamp["problems"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    for key in ("nproc", "python", "platform", "commit", "seed",
                                "seconds", "attempted", "source_sha256"):
                        self.assertIn(key, stamp)

    def test_wrong_digest_raises_fail_ratio(self):
        golden = json.loads((HERE / "golden.json").read_text())
        golden["reports"]["S4"]["atomic"]["prop-1.2"][1] = "0" * 64
        golden["graphs"]["S4"]["atomic"]["hall"] = "0" * 64
        wrong = SCRATCH / "golden-wrong.json"
        wrong.write_text(json.dumps(golden))
        # one sweep call (S4 under the atomic partition) and one graph call
        for workload, expect_failed in (("sweep_light", 1), ("graph_cold", 1)):
            with self.subTest(workload=workload):
                code, lines = bench(workload, golden=wrong)
                self.assertEqual(code, 0)
                stamp, result = result_of(lines)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], expect_failed)
                self.assertAlmostEqual(stamp["fail_ratio"],
                                       expect_failed / result["attempted"])

    def test_spans_nest_and_calls_repeat(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                runs = []
                for seed in (1, 2):
                    code, lines = bench(workload, trace=1, seed=seed)
                    self.assertEqual(code, 0)
                    stamp, result = result_of(lines)
                    self.assertEqual(stamp["nesting_errors"], 0)
                    self.assert_spans_nest(ROOT / stamp["spans_file"], stamp["spans"])
                    runs.append({k: m["value"] for k, m in result["metrics"].items()
                                 if k.endswith(".calls")})
                self.assertEqual(runs[0], runs[1])
                self.assertGreater(runs[0]["group.PermGroup.calls"], 0)

    def assert_spans_nest(self, path: Path, n_spans: int) -> None:
        with path.open() as fh:
            header = json.loads(fh.readline())
            self.assertEqual(header["fields"], ["name", "parent", "start", "end"])
            spans = [line.split() for line in fh]
        self.assertEqual(len(spans), n_spans)
        for i, (_, parent, start, end) in enumerate(spans):
            p = int(parent)
            self.assertLessEqual(float(start), float(end))
            if p >= 0:
                self.assertLess(p, i)
                self.assertLessEqual(float(spans[p][2]), float(start))
                self.assertLessEqual(float(end), float(spans[p][3]))

    def test_refuses_without_source(self):
        bare = SCRATCH / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines = bench(self.workloads[0], cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
