#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds the
library and the benchmark in .bench_build/perfbench (Release); later calls
rebuild only what changed.  The benchmark's own output is passed through,
so the last line of stdout is its JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no repository sources next to perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    cmd = [BINARY] + sys.argv[1:] + ["--work-dir", os.path.join(BUILD_ROOT, "work")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
