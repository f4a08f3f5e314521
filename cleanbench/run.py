#!/usr/bin/env python3
"""Builds and runs the clean-answer benchmark.

    python3 cleanbench/run.py --workload fig8_clean --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout. The first run configures and builds
an optimised (Release) tree under $CARGO_TARGET_DIR/cleanbench, or
.bench_build/cleanbench when the variable is unset; later runs only check
that it is up to date. Build output goes to stderr, so the benchmark's last
line on stdout is its JSON result. Extra arguments (e.g. --record-digests)
pass through to the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout else \
        "unknown"


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "cleanbench", "cleanbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20060402)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "cleanbench")
    if not build(build_dir):
        return 1
    data_dir = os.path.join(build_dir, "data")
    cmd = [os.path.join(build_dir, "cleanbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir,
           "--digests", os.path.join(HERE, "digests.txt"),
           "--git-sha", git_sha()] + extra
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
