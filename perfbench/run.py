#!/usr/bin/env python3
"""Builds and runs the BLEND end-to-end benchmark.

    python3 perfbench/run.py --workload sc-seek --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run configures and compiles the
blend library and the benchmark program (perfbench/bench.cc) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
rebuild what changed. The program's stdout is passed through: its last line
is the JSON result. Build output goes to stderr. Exits non-zero when the
build fails, the program fails, or an oracle check rejects a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sc-seek", "mc-seek", "task-serving")
# A run measures for --seconds after set-up; set-up and the oracle check
# take well under a minute on every workload.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir, env):
    here = os.path.dirname(os.path.abspath(__file__))
    configure = ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "blend_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    # Keep the compiler's and the program's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: blend_perfbench timed out")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit("perfbench: blend_perfbench exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()
