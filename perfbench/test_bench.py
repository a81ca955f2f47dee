#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

A short run of every workload in BENCHMARK.json, untraced and traced, must
print every metric BENCHMARK.json names, with its unit, and a correct result.
The oracle must flag a delivery log with one a-delivery removed. Takes about
a minute after the first build.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SMOKE_SECONDS = "3"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    out = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


class Benchmark(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        code, lines, err = run("--workload", workload, "--seed", "7",
                               "--seconds", SMOKE_SECONDS, "--trace", trace)
        self.assertEqual(code, 0, err[-2000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], lines[-2])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for metric in expected:
            self.assertIn(metric["name"], result["metrics"])
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_run(w["name"], "0", SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_run(w["name"], "1", SPEC["per_layer"])

    def test_oracle_flags_a_removed_delivery(self):
        code, lines, err = run("--self-test")
        self.assertEqual(code, 0, err[-2000:])
        self.assertEqual(lines[-1], "oracle self-test passed")

    def test_unknown_workload_is_refused(self):
        code, _, _ = run("--workload", "nope", "--seed", "1", "--seconds",
                         "1", "--trace", "0")
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
