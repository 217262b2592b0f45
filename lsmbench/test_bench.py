#!/usr/bin/env python3
"""Smoke test of the lsmlab benchmark: python3 lsmbench/test_bench.py

Runs every workload run.py knows (readmostly_cold too, which BENCHMARK.json
leaves out) at its seconds-scale smoke size, untraced and traced, and checks
that each metric BENCHMARK.json names is emitted with its unit, that
no answer was wrong, that the traced env kept MultiGet's batched reads
intact, and that a deliberately wrong expectation fails the run.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_benchmark_lists_known_workloads(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def test_end_to_end_metrics_and_oracle(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc, result = run(name, 0)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertIn("wrong answers 0, error_rate 0\n", proc.stdout)
                self.check_metrics(result, self.spec["end_to_end"])
                for metric, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, metric)

    def test_per_layer_metrics_and_multiread_fidelity(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc, result = run(name, 1)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.check_metrics(result, self.spec["per_layer"])
                fidelity = re.search(
                    r"io\.fg\.multiread_batches=(\d+) statistics\.io_batches=(\d+)",
                    proc.stdout)
                self.assertIsNotNone(fidelity, proc.stdout)
                env_batches, stats_batches = map(int, fidelity.groups())
                self.assertEqual(env_batches, stats_batches)
                self.assertEqual(
                    result["metrics"]["io.fg.multiread_batches"]["value"], env_batches)
                if name == "readmostly_cold":
                    self.assertGreater(env_batches, 0)

    def test_wrong_expectation_fails_the_run(self):
        proc, result = run("readmostly_hot", 0, "--break-oracle")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("WRONG ANSWER", proc.stdout)


if __name__ == "__main__":
    unittest.main()
