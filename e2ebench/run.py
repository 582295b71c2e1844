#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload rds_served --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), Release, on
every call; an up-to-date build is a no-op. Build output goes to stderr,
so the last stdout line is the benchmark's result object. Any other
argument is passed through to the binary (see main.cc).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build() -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "e2ebench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"e2ebench: build step failed: {' '.join(step)}")
    return out / "e2ebench"


def commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    binary = build()
    workdir = build_dir().parent / "e2ebench-work"
    workdir.mkdir(parents=True, exist_ok=True)
    args = [str(binary), *sys.argv[1:], "--commit", commit(),
            "--workdir", str(workdir)]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
