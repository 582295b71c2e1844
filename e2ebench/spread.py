#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --workload rds_served --seeds 1-10 [--trace 0]

For every metric: the median over the runs and the interquartile
distance (statistics.quantiles(values, n=4), Q3 - Q1) as a share of the
median, next to the metric's bound from BENCHMARK.json. Also fails any
run whose result is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds")
    opts = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    ok = True
    for seed in parse_seeds(opts.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               opts.workload, "--seed", str(seed), "--seconds", seconds,
               "--trace", opts.trace]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"\n{'metric':34} {'median':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = " OVER" if share > bound else (" >1/3" if share > bound / 3 else "")
        print(f"{name:34} {med:12.5g} {share:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
