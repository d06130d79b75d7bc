#!/usr/bin/env python3
"""Self-tests of the repo benchmark (about two minutes).

    python3 perfbench/selftest.py

Builds through run.py, then checks that
  * the metric names and units the binary prints match BENCHMARK.json,
    and layers.json maps every per-layer metric;
  * a tiny run of each workload passes its output checks;
  * the same seed gives identical deterministic metrics (sim_*,
    asmkernels.*, armvm.instructions_per_tx, armvm.fused_frac,
    faultsim.fired_frac);
  * a different seed changes the request sequence.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402  (build() and the workload list)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
DETERMINISTIC_E2E = ("sim_cycles_per_tx", "sim_energy_uj_per_tx")
DETERMINISTIC_LAYER_PREFIXES = ("asmkernels.", "armvm.instructions_per_tx",
                                "armvm.fused_frac", "faultsim.fired_frac")


def binary_result(*args):
    """Run the binary; return (exit code, RESULT metrics dict, stdout)."""
    p = subprocess.run([str(BINARY)] + list(args), cwd=ROOT,
                       capture_output=True, text=True, timeout=170)
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("RESULT ")]
    raw = json.loads(lines[-1][len("RESULT "):]) if lines else None
    return p.returncode, raw, p.stdout


def deterministic(metrics, trace):
    if not trace:
        return {k: metrics[k]["value"] for k in DETERMINISTIC_E2E}
    return {k: v["value"] for k, v in metrics.items()
            if k.startswith(DETERMINISTIC_LAYER_PREFIXES)}


class BenchmarkSelfTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        # One traced run per workload, shared by the tests below.
        for w in run.WORKLOADS:
            cls.traced[w] = binary_result("--workload", w, "--seed", "3",
                                          "--seconds", "2", "--trace", "1")

    def test_metric_names_and_units_match(self):
        for trace, rows in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            for w in run.WORKLOADS:
                if trace:
                    code, raw, _ = self.traced[w]
                else:
                    code, raw, _ = binary_result("--workload", w, "--seed",
                                                 "3", "--seconds", "1",
                                                 "--trace", "0")
                self.assertEqual(code, 0, w)
                for row in rows:
                    got = raw["metrics"].get(row["name"])
                    self.assertIsNotNone(got, f"{w}: {row['name']} missing")
                    self.assertEqual(got["unit"], row["unit"], row["name"])
        mapped = {m for group in LAYERS["per_layer_moves"]
                  for m in group["metrics"]}
        for row in SPEC["per_layer"]:
            self.assertIn(row["name"], mapped, "not mapped in layers.json")
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))

    def test_tiny_run_of_each_workload_passes_checks(self):
        for w in run.WORKLOADS:
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", "5", "--seconds", "1", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(p.returncode, 0, p.stderr[-2000:])
            last = json.loads(p.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(last), ["attempted", "correct", "failed",
                                            "metrics"])
            self.assertTrue(last["correct"], w)
            self.assertEqual(last["failed"], 0, w)
            self.assertGreaterEqual(last["attempted"], 1, w)
            self.assertEqual(set(last["metrics"]),
                             {m["name"] for m in SPEC["end_to_end"]})
            for m in last["metrics"].values():
                self.assertNotEqual(m["value"], 0, w)

    def test_same_seed_same_deterministic_metrics(self):
        for w in run.WORKLOADS:
            runs = [binary_result("--workload", w, "--seed", "11",
                                  "--seconds", "1", "--trace", "0")[1]
                    for _ in range(2)]
            self.assertEqual(deterministic(runs[0]["metrics"], 0),
                             deterministic(runs[1]["metrics"], 0), w)
        again = binary_result("--workload", "replay-mix", "--seed", "3",
                              "--seconds", "2", "--trace", "1")[1]
        first = deterministic(self.traced["replay-mix"][1]["metrics"], 1)
        self.assertEqual(first, deterministic(again["metrics"], 1))
        self.assertGreaterEqual(len(first), 9)
        # Kernel cycle counts do not depend on the workload either.
        kernels = {k: v for k, v in first.items() if k.startswith("asmkernels.")}
        for w in run.WORKLOADS:
            m = deterministic(self.traced[w][1]["metrics"], 1)
            self.assertEqual(kernels, {k: m[k] for k in kernels}, w)

    def test_different_seed_changes_sequence(self):
        for w in run.WORKLOADS:
            seqs = {}
            for seed in ("1", "1", "2"):
                p = subprocess.run([str(BINARY), "--workload", w, "--seed",
                                    seed, "--print-sequence", "40"],
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=60)
                self.assertEqual(p.returncode, 0)
                self.assertEqual(len(p.stdout.splitlines()), 40, w)
                seqs.setdefault(seed, set()).add(p.stdout)
            self.assertEqual(len(seqs["1"]), 1, f"{w}: seed 1 not repeatable")
            self.assertNotEqual(seqs["1"], seqs["2"], w)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
