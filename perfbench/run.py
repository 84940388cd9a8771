#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay-bf --seed 0 --seconds 10 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) and the repository's
`serve` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload. The last line of standard
output is the result object; the line before it carries the host and
workload fingerprint. The exit code is non-zero when the build fails or
any correctness check fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["replay-bf", "sweep-durable", "serve-small-frames", "tune-halving"]


def build(target, root):
    """Builds the benchmark and the serve binary; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "bfbp-bench", "--bin", "serve"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout is reserved for results.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=root)
        if done.returncode != 0:
            return None
    release = os.path.join(target, "release")
    return os.path.join(release, "bfbp-perfbench"), os.path.join(release, "serve")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's results as the golden file (default seed only)")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    built = build(target, root)
    if built is None:
        print("error: build failed", file=sys.stderr)
        return 1
    bench, serve = built

    # Each run generates its traces into a private directory and removes
    # it at the end, so runs never share state and the checkout does not
    # grow with the number of seeds tried.
    work = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(work, "run"),
        "--cache-dir", os.path.join(work, "trace-cache"),
        "--results-dir", os.path.join(target, "perfbench-results"),
        "--serve-bin", serve,
        "--golden-dir", os.path.join(HERE, "golden"),
    ]
    if args.write_golden:
        cmd.append("--write-golden")
    try:
        done = subprocess.run(cmd, cwd=root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
