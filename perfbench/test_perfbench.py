#!/usr/bin/env python3
"""Self-test of the benchmark in its tiny-duration mode (8 s simulated
window): every workload emits every end-to-end and per-layer metric of
BENCHMARK.json with its unit, reproduces its pinned seed-42 fingerprint, and
a stripped checkout fails cleanly.

    python3 perfbench/test_perfbench.py      # from the repository root
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]
TINY = 8


def bench(workload, trace, seed=42, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--sim-seconds", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_output(self, workload, trace, section):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        detail, result = parse(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        # At least two runs of one seed, all matching the pinned fingerprint.
        self.assertGreaterEqual(result["attempted"], 2)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        pinned = [fp for fp in WORKLOADS[workload]["fingerprints"]
                  if fp["seed"] == 42 and fp["sim_seconds"] == TINY]
        self.assertEqual(len(pinned), 1)
        self.assertEqual(detail["fingerprint"]["head"], pinned[0]["head"])
        self.assertTrue(detail["host"]["release_build"])
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_output(workload, 0, "end_to_end")
                for name in ("wall_s", "setup_s", "peak_rss_mb",
                             "tx_per_host_s"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_output(workload, 1, "per_layer")
                self.assertGreater(
                    result["metrics"]["ledger.mvcc_validate_ns_per_tx"]
                    ["value"], 0)

    def test_other_seed_changes_head(self):
        proc = bench("smallbank-solo-bounded", 0, seed=43)
        detail, result = parse(proc)
        self.assertTrue(result["correct"], proc.stderr)
        pinned = WORKLOADS["smallbank-solo-bounded"]["fingerprints"]
        self.assertNotIn(detail["fingerprint"]["head"],
                         [fp["head"] for fp in pinned])

    def test_stripped_checkout_fails_without_result(self):
        stripped = ROOT / ".bench_build" / "selftest-stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        shutil.copytree(BENCH_DIR, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        try:
            proc = bench("or-raft-fresh", 0, cwd=stripped)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
