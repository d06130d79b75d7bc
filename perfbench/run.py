#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload replay-mix|campaign|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench binary from source
(CMake, Release) into $CARGO_TARGET_DIR or .bench_build, then:

  --trace 0  measures cold set-up in many fresh processes
             (--setup-only), half before and half after the timed
             workload, and takes their median as setup_s; the timed
             workload reports every other end-to-end metric;
  --trace 1  runs the traced workload plus the per-layer ledger and
             reports every per-layer metric.

The binary checks every output it produces; a failed check makes this
script exit 1. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics, as BENCHMARK.json defines them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay-mix", "campaign", "serve-mix")
# Fresh processes whose cold set-up is timed, besides the measured run.
# Half run before and half after it, so the median spans two moments of
# the host's speed rather than one.
SETUP_PROCESSES = 60
# Whole-run budget after the build; a run must end within 180 s.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then an incremental build of the one target."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_binary(binary, args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run budget exhausted")
    return subprocess.run([str(binary)] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=left)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opt = ap.parse_args()
    if opt.seed < 0 or not opt.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    try:
        return measure(binary, opt)
    except (subprocess.TimeoutExpired, TimeoutError) as e:
        log(f"perfbench: out of time: {e}")
        return 1


def measure(binary, opt):
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", opt.workload, "--seed", str(opt.seed)]

    setups = []

    def time_setups(n):
        for _ in range(n):
            p = run_binary(binary, common + ["--setup-only"], deadline)
            if p.returncode != 0 or not p.stdout.startswith("SETUP "):
                log(p.stdout + p.stderr)
                log("perfbench: set-up run failed")
                return False
            setups.append(float(p.stdout.split()[1]))
        return True

    if not opt.trace and not time_setups(SETUP_PROCESSES // 2):
        return 1
    p = run_binary(binary, common + ["--seconds", repr(opt.seconds),
                                     "--trace", str(opt.trace)], deadline)
    if not opt.trace and not time_setups(SETUP_PROCESSES - SETUP_PROCESSES // 2):
        return 1
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    result_lines = [ln for ln in lines if ln.startswith("RESULT ")]
    for ln in lines:
        if not ln.startswith("RESULT "):
            print(ln)
    if not result_lines:
        log(f"perfbench: no result (exit {p.returncode})")
        return 1
    raw = json.loads(result_lines[-1][len("RESULT "):])

    if setups and "setup_s" in raw["metrics"]:
        setups.append(raw["metrics"]["setup_s"]["value"])
        raw["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s: median of {len(setups)} cold set-ups "
              f"(min {min(setups):.6f} s, max {max(setups):.6f} s)")

    metrics = {}
    for name, unit in declared_metrics(opt.trace).items():
        got = raw["metrics"].get(name)
        if got is None or got["unit"] != unit:
            log(f"perfbench: metric {name} [{unit}] missing or mis-unit: {got}")
            return 1
        metrics[name] = {"value": got["value"], "unit": unit}
    correct = bool(raw["correct"]) and p.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
