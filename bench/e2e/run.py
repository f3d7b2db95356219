#!/usr/bin/env python3
"""Build nxd_bench if needed and run one end-to-end workload.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload feed --seed 1 --seconds 20 --trace 0

The first run configures and builds bench/e2e (a standalone CMake project
that compiles the library from src/) into .bench_build/.  The last line of
stdout is the run's summary JSON; the line before it is the full result
(run context, checks, every number).  --out DIR also writes the full result
and, for traced runs, the span JSONL into DIR, for compare.py.  The exit
code is non-zero, and no summary is printed, when the build or a check
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "nxd_bench")
WORKLOADS = ("feed", "resolve", "attack", "honeypot")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build nxd_bench; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "nxd_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    root = os.path.dirname(os.path.dirname(HERE))
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result files")
    args = parser.parse_args()

    if not build():
        print("run.py: building nxd_bench failed", file=sys.stderr)
        return 1
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--work-dir={os.path.join(BUILD_DIR, 'work')}",
           f"--git-sha={git_sha()}"]
    if args.trace:
        cmd.append("--trace")
    if args.out:
        cmd.append(f"--out={args.out}")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: nxd_bench timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        # The binary's full result still shows which check failed.
        sys.stderr.write(run.stdout)
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
