#!/usr/bin/env python3
"""Builds the benchmark from source (first run only) and runs one workload.

    python3 lionbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/lionbench
(default .bench_build/lionbench). Every argument is passed to the lionbench
binary; see README.md for the workloads, metrics and extra flags. The last
stdout line is the JSON result. Exits non-zero, without a result, if the
build or any correctness check fails.
"""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "lionbench"
RUN_TIMEOUT_S = 170


def build() -> Path:
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", str(ROOT / "lionbench"), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "-j", jobs]]
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("lionbench: build failed\n")
                sys.exit(1)
    return BUILD / "lionbench"


def main() -> int:
    args = sys.argv[1:]
    flags = dict(zip(args[::2], args[1::2]))
    binary = build()
    if flags.get("--trace") == "1":
        (BUILD / "spans").mkdir(exist_ok=True)
        spans = BUILD / "spans" / f"{flags.get('--workload', 'unknown')}.spans"
        args += ["--spans-out", str(spans)]
    sys.stdout.flush()
    try:
        return subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"lionbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
