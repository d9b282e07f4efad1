#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 itscs_bench/run.py --workload batch_fleet --seed 1 --seconds 40 --trace 0

The first call configures and builds `itscs_bench` (the repository's
libraries plus the benchmark, nothing else) into `.bench_build/`; later
calls rebuild incrementally. The remaining arguments go to the benchmark
binary unchanged; its standard output is passed through, so the last line
is the JSON result. Build output goes to standard error. Exits nonzero,
without a result line, when the build fails.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "itscs_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("itscs_bench: build step failed: %s\n"
                             % " ".join(step))
            return 3

    binary = os.path.join(build_dir, "itscs_bench")
    sys.stdout.flush()
    done = subprocess.run([binary] + sys.argv[1:], cwd=root)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
