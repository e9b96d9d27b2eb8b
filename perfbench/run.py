#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv_read_latest --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build
output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Traces of --trace 1 runs land in the build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_read_latest", "kv_update_durable", "ir_exec")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build uprbench; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "uprbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "uprbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds within 1..600")

    out = build_dir()
    exe = build(out)
    if exe is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([exe, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--trace-dir", out]).returncode


if __name__ == "__main__":
    sys.exit(main())
