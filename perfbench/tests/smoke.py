#!/usr/bin/env python3
"""Smoke test of the benchmark: builds and runs the helper unit tests, then
runs every workload at tiny size, untraced and traced, and checks that

  * the last stdout line is the result JSON with exactly the keys correct,
    attempted, failed and metrics, and the run is correct;
  * the metrics are exactly BENCHMARK.json's end_to_end (trace 0) or
    per_layer (trace 1) list, each once, with the declared unit, and each
    is printed exactly once as a "metric <name> <value> <unit>" line;
  * the traced run's spans nest: every child lies within its parent and no
    span has negative self time.

Run from the root of a checkout:  python3 perfbench/tests/smoke.py
"""
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
SLACK_US = 50.0  # adres_perfbench's own nesting slack (two clocks)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def check_spans(path, errors):
    with open(path) as f:
        spans = json.load(f)["spans"]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end_us"] < s["start_us"]:
            errors.append(f"{path}: span {s['id']} ends before it starts")
        if s["self_us"] < -0.01:
            errors.append(f"{path}: span {s['id']} has negative self time")
        p = by_id.get(s["parent"])
        if s["parent"] and p is None:
            errors.append(f"{path}: span {s['id']} has a missing parent")
        elif p and (s["start_us"] < p["start_us"] - SLACK_US
                    or s["end_us"] > p["end_us"] + SLACK_US):
            errors.append(f"{path}: span {s['id']} ({s['name']}) lies outside "
                          f"its parent {p['id']} ({p['name']})")
    if not spans:
        errors.append(f"{path}: no spans")


def main():
    errors = []
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decode-long",
                    "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"],
                   stdout=subprocess.DEVNULL, check=True)  # builds adres_perfbench
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_unit", "-j2"],
                   stdout=subprocess.DEVNULL, check=True)
    if subprocess.run([os.path.join(BUILD_DIR, "perfbench_unit")]).returncode != 0:
        errors.append("helper unit tests failed")

    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            tag = f"{w['name']} --trace {trace}"
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w["name"], "--seed",
                 "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, text=True)
            lines = p.stdout.splitlines()
            if p.returncode != 0 or not lines:
                errors.append(f"{tag}: exit {p.returncode}")
                continue
            result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                errors.append(f"{tag}: run not correct or attempted nothing")
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(want):
                errors.append(f"{tag}: metric names differ from BENCHMARK.json: "
                              f"{sorted(set(metrics) ^ set(want))}")
            for name, unit in want.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    errors.append(f"{tag}: {name} has {got}, want unit {unit}")
                printed = [l for l in lines[:-1] if l.split()[:2] == ["metric", name]]
                if len(printed) != 1 or printed[0].split()[3] != unit:
                    errors.append(f"{tag}: {name} printed {len(printed)} times "
                                  f"(want once with unit {unit})")
            if trace:
                check_spans(os.path.join(".bench_build", "perfbench",
                                         f"spans-{w['name']}-seed3.json"), errors)
            print(f"ok  {tag}" if not errors else f"... {tag}", flush=True)

    for e in errors:
        print("FAIL", e)
    print("smoke: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
