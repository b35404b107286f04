#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 claimbench/run.py --workload bert-honest --seed 1 --seconds 10 --trace 0
    python3 claimbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the tao
library and the benchmark from source into .bench_build/claimbench (later calls
only rebuild what changed); build output goes to standard error, so the last line
of standard output is the benchmark's result object. Every file the run writes
stays under .bench_build/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "claimbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"claimbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_build_step(command):
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(command)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no tao sources next to the benchmark (looked in {ROOT})")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def main(argv):
    build()
    if argv == ["--self-test"]:
        command = [str(BUILD_DIR / "claimbench_selftest")]
    else:
        command = [str(BUILD_DIR / "claimbench"), *argv,
                   "--work-dir", str(ROOT / ".bench_build" / "work")]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=4)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
