#!/usr/bin/env python3
"""Builds and runs the repository's whole-run benchmark.

    python3 perfbench/run.py --workload paper_full|paper_spill|census_sweep \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the repository's src/ libraries plus the
benchmark driver) under .bench_build/ at the repository root, runs the
scorer's own test, then runs the driver once. The driver's last stdout line
is the result object; this script checks its shape and prints it as its own
last line. Exits non-zero, without a result line, when the sources are
missing, the build or the scorer test fails, or the driver fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPILL = ROOT / ".bench_build" / "spill"
WORKLOADS = ("paper_full", "paper_spill", "census_sweep")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; fails on non-zero."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, command))}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(map(str, command))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, timeout=300)
    run_logged(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
               timeout=1500)
    run_logged([str(BUILD / "perfbench_test_scorer"), "--gtest_brief=1"],
               timeout=120)


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"driver printed no result object: {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result object has keys {sorted(result)}")
    if result["attempted"] < 1 or not result["metrics"]:
        fail("result object is empty")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # A terminating signal becomes SystemExit, so subprocess.run kills and
    # reaps the driver and the spill directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    build()
    spill_dir = SPILL / f"{args.workload}-{os.getpid()}"
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spill-dir", str(spill_dir)]
    try:
        driver = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    lines = driver.stdout.strip().splitlines()
    if not lines:
        fail(f"driver exited {driver.returncode} without output")
    result = check_result(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if driver.returncode != 0 or not result["correct"]:
        sys.exit(driver.returncode or 1)


if __name__ == "__main__":
    main()
