#!/usr/bin/env python3
"""Build and run the end-to-end solver benchmark for one workload.

    python3 perfbench/run.py --workload ii-er20 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark binary from source into `.bench_build/`
(or `$CARGO_TARGET_DIR` when set); later calls reuse the build. The
binary's stdout passes through unchanged: its last line is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_root):
    """Configure (once) and build perfbench_solve; returns its path."""
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1")
    # Concurrent first runs must not race on one build tree.
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = any(os.path.exists(os.path.join(bdir, f))
                        for f in ("build.ninja", "Makefile"))
        if not generated:
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", bdir, "--target", "perfbench_solve", "-j", jobs],
            check=True, stdout=sys.stderr, env=env)
    return os.path.join(bdir, "perfbench_solve")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    try:
        exe = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
