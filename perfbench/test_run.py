#!/usr/bin/env python3
"""Tests of the benchmark command itself.

    python3 perfbench/test_run.py

Builds the harness (as run.py does) and runs the quick mode on a seed
that was never used while the benchmark was tuned.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
# Held out: never used while choosing the workloads, scales or bounds.
HELD_OUT_SEED = 90_413


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


class HeldOutSeed(unittest.TestCase):
    def test_quick_mode_passes_every_check_with_the_declared_metrics(self):
        done = subprocess.run(
            [sys.executable, str(RUN), "--fast", "--seed", str(HELD_OUT_SEED)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout)
        results = [json.loads(line) for line in done.stdout.splitlines()
                   if line.startswith("{")]
        # Three workloads, each untraced then traced.
        self.assertEqual(len(results), 6, done.stdout)
        for i, r in enumerate(results):
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"], r)
            self.assertEqual(r["failed"], 0, r)
            self.assertGreaterEqual(r["attempted"], 1, r)
            kind = "end_to_end" if i % 2 == 0 else "per_layer"
            self.assertEqual(set(r["metrics"]), declared(kind))
            if kind == "end_to_end":
                for m in r["metrics"].values():
                    self.assertGreater(m["value"], 0, r)


class Refusals(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        work = ROOT / ".bench_build"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "smt8_mmx_ideal",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_rejects_missing_arguments(self):
        done = subprocess.run([sys.executable, str(RUN), "--workload", "smt8_mmx_ideal"],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
