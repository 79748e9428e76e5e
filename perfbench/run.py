#!/usr/bin/env python3
"""Runs one adres-sdr benchmark workload and prints its result.

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run builds the simulator and the
benchmark program from source into .bench_build/ (CMake, Release).  With
--trace 0 the set-up time is measured in three cold processes (two set-up
only runs and the measuring run) and reported as their median; with
--trace 1 the per-layer metrics come from a traced run whose spans land in
.bench_build/perfbench/.  The last line of standard output is the result
JSON: {"correct", "attempted", "failed", "metrics"}.  Exits non-zero without
a result when the checkout cannot be built or the run fails.  --tiny
shrinks every workload (the smoke test uses it).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("decode-long", "campaign-sweep", "cell-sweep")
BUILD_DIR = os.path.join(".bench_build", "cmake")
OUT_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "adres_perfbench")
SETUP_PROCESSES = 3  # cold processes whose set-up times give setup_s
RUN_LIMIT_S = 170    # a run must end within 180 s once built


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    # Build output goes to stderr: stdout ends with the result line.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "adres_perfbench",
                    "-j2"], stdout=sys.stderr, check=True)


def run_binary(args, deadline):
    """Runs adres_perfbench; returns (exit code, stdout lines)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time")
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    return p.returncode, p.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
              str(a.seconds), "--out-dir", OUT_DIR] + (["--tiny"] if a.tiny else [])
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROCESSES - 1):
            code, lines = run_binary(common + ["--trace", "0", "--setup-only"], deadline)
            if code != 0 or not lines:
                fail("set-up run failed")
            setups.append(json.loads(lines[-1])["setup_s"])

    code, lines = run_binary(common + ["--trace", str(a.trace)], deadline)
    if code != 0 or not lines:
        fail(f"benchmark run failed (exit {code})")
    result = json.loads(lines[-1])
    if a.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        if line.startswith("metric setup_s "):
            line = (f"metric {'setup_s':<34} {statistics.median(setups):16.6f} s"
                    f"  (median of cold processes: "
                    + ", ".join(f"{s:.3f}" for s in setups) + ")")
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
