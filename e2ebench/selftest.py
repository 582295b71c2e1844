#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 e2ebench/selftest.py

1. The same seed gives byte-identical request streams on every
   connection of every workload, and a different seed gives different
   ones (digests of the first 5000 requests).
2. A smoke-sized run (small testbed, 1 s) of every workload, untraced
   and traced, answers every request correctly and prints exactly the
   metric names BENCHMARK.json lists, in its order, with their units.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import run  # noqa: E402  (the builder)

WORKLOADS = ("rds_served", "sds_served", "write_mix")


def digests(binary, seed):
    out = subprocess.run([str(binary), "--digest", "5000", "--seed", str(seed)],
                         capture_output=True, text=True, check=True).stdout
    return {line.split()[1]: line.split()[2] for line in out.splitlines()}


def main():
    binary = run.build()
    failures = []

    first, again, other = digests(binary, 1), digests(binary, 1), digests(binary, 2)
    for workload in WORKLOADS:
        if first.get(workload) != again.get(workload):
            failures.append(f"{workload}: seed 1 streams differ between calls")
        if first.get(workload) == other.get(workload):
            failures.append(f"{workload}: seeds 1 and 2 give the same stream")
    print(f"stream digests seed 1: {first}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    expected = {
        "0": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "1": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", trace,
                 "--smoke", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{workload} trace {trace}: exit "
                                f"{done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if got != expected[trace]:
                failures.append(f"{workload} trace {trace}: metrics {got} != "
                                f"BENCHMARK.json {expected[trace]}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{workload} trace {trace}: {lines[-1]}")
            print(f"smoke {workload} trace {trace}: attempted "
                  f"{result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}")

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
