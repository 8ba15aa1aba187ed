#!/usr/bin/env python3
"""Seconds-long smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Run from the root of a checkout. Every workload runs for one second, untraced
and traced, through perfbench/run.py. Each run must exit 0 and end with the
result object; every metric BENCHMARK.json names must be there with its unit
and a finite value (end-to-end values also nonzero); every correctness check
the workload owns must have run and passed; the run record must be complete.
A copy of the benchmark without the repository's sources must fail without
printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "pairs_1t": {"pairs.value"},
    "p5050_2t": {"p5050.order", "p5050.checksum"},
    "window_2t": {"window.fifo"},
    "pingpong_2t": {"pingpong.reply"},
}
# The traced run measures every layer: the ladder, a traced pass of each
# 2-thread workload, and the named workload itself.
TRACED_CHECKS = {"ladder.value", "p5050.order", "p5050.checksum", "window.fifo",
                 "pingpong.reply"}
RECORD_FIELDS = ("cpu_model", "nproc", "kernel", "compiler", "compile_command",
                 "source_sha256", "pinned_cpus", "steal_frac", "seed")


def run(workload, trace, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        r = run(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        lines = r.stdout.strip().splitlines()
        record = json.loads(lines[-2])["run_record"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(record["failed_frac"], 0)

        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if not trace:
            self.assertGreater(record["latency_samples"], 0)

        want = CHECKS[workload] | (TRACED_CHECKS if trace else set())
        self.assertEqual(set(record["checks"]), want)
        for name, c in record["checks"].items():
            self.assertGreater(c["ran"], 0, name)
            self.assertEqual(c["failed"], 0, name)
        for field in RECORD_FIELDS:
            self.assertIsNotNone(record[field], field)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_fails_without_sources(self):
        lone = ROOT / ".bench_build" / "smoke_lone"
        shutil.rmtree(lone, ignore_errors=True)
        lone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", lone)
        shutil.copytree(BENCH_DIR, lone / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            w = SPEC["workloads"][0]["name"]
            r = run(w, 0, cwd=lone, script=lone / BENCH_DIR.name / "run.py")
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
