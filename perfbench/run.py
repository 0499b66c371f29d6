#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Builds the benchmark and the library it measures from source (the
CMake package in this directory, which compiles ../src), then runs one
workload and passes its output through; the last line of standard output
is the result JSON.

    python3 perfbench/run.py --workload splash-rr --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Build output goes to standard error. Everything the benchmark writes
stays under .bench_build/ at the root of the checkout.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build(target):
    """Configures (once) and builds TARGET; returns False on failure."""
    to_stderr = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, **to_stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    return subprocess.run(command, **to_stderr).returncode == 0


def main():
    os.chdir(ROOT)
    args = sys.argv[1:]
    if args == ["--self-test"]:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not build("perfbench"):
        return 1
    sys.stdout.flush()
    command = [os.path.join(BUILD, "perfbench"), *args, "--out", OUT]
    # A fixed address-space layout removes one source of run-to-run
    # spread (where the allocator and the stacks land).
    if shutil.which("setarch"):
        command = ["setarch", os.uname().machine, "-R", *command]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
