#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, at tiny scale (--seconds 0.5,
one to a few replications per workload; under a minute after the build).

    python3 e2ebench/test_run.py

Checks that every workload emits exactly the end-to-end and per-layer
metrics BENCHMARK.json declares, with the declared units, and that a
corrupted expected hash makes the run fail: failed > 0 and a nonzero exit.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--seconds", "0.5", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stdout


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                code, result, out = bench("--workload", workload, "--seed", "3",
                                          "--trace", str(trace))
                self.assertEqual(code, 0, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    # The human-readable report names it with its unit too.
                    self.assertRegex(out, rf"(?m)^{re.escape(name)} +\S+ {re.escape(m['unit'])}$")
                self.assertRegex(out, r"(?m)^failed_frac +0 ")

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class ExpectedHashes(unittest.TestCase):
    def test_corrupted_hash_fails_the_run(self):
        expected = json.loads((HERE / "expected_hashes.json").read_text())
        workload = "rc_allmove_tb"
        good = expected["workloads"][workload][0]
        expected["workloads"][workload][0] = format(int(good, 16) ^ 1, "016x")
        corrupted = ROOT / ".bench_build" / "e2ebench" / "corrupted_hashes.json"
        corrupted.parent.mkdir(parents=True, exist_ok=True)
        corrupted.write_text(json.dumps(expected))
        seed = str(expected["seed"])
        code, result, out = bench("--workload", workload, "--seed", seed, "--trace", "0",
                                  "--expected", str(corrupted))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("failed_frac", out)
        # The recorded hashes themselves pass.
        code, result, out = bench("--workload", workload, "--seed", seed, "--trace", "0")
        self.assertEqual(code, 0, out)
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
