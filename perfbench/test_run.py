#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale.

Runs every workload of perfbench/run.py with --scale toy, untraced and
traced, and checks that each prints every metric named in BENCHMARK.json
exactly once with its unit, and that a wrong reference digest makes every
op fail. Builds like run.py does, into $CARGO_TARGET_DIR (default
.bench_build). Run from anywhere:

    python3 perfbench/test_run.py
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, specs):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                result, lines = bench(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in specs})
                for m in specs:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    printed = [ln for ln in lines if re.match(
                        rf"\s+{re.escape(m['name'])}\s+\S+ "
                        rf"{re.escape(m['unit'])}\b", ln)]
                    self.assertEqual(len(printed), 1, m["name"])

    def test_end_to_end_metrics(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, BENCH["per_layer"])


class WrongReference(unittest.TestCase):
    def test_wrong_digest_fails_every_op(self):
        bench("sweep-sim", 0)  # computes (or reuses) the toy references
        refs = [p for p in (run.build_dir() / "refs").glob("sweep-sim-*")
                if json.loads(p.read_text())["scale"] == "toy"]
        self.assertTrue(refs)
        saved = {p: p.read_text() for p in refs}
        try:
            for p, text in saved.items():
                doc = json.loads(text)
                doc["digests"] = {k: "0" * 64 for k in doc["digests"]}
                p.write_text(json.dumps(doc))
            result, lines = bench("sweep-sim", 0)
        finally:
            for p, text in saved.items():
                p.write_text(text)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("fail_ratio       1 ratio", "\n".join(lines))


if __name__ == "__main__":
    unittest.main()
