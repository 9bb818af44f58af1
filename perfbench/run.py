#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build tree goes to $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; build output goes to stderr so
the last line of stdout stays the benchmark's JSON result. Exits non-zero,
printing no result, when the program cannot be built or a run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 3
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
