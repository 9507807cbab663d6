#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tc-rmat|bc-rmat|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `mxm` binary and the benchmark
crate in release mode (into $CARGO_TARGET_DIR, default .bench_build),
then runs the benchmark; its last stdout line is the result object.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        sys.exit("perfbench: run from the repository root (no Cargo.toml/crates here)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mspgemm-cli", "--bin", "mxm"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr; stdout is reserved for the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(root, target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--mxm", os.path.join(release, "mxm"),
        "--results", os.path.join(target, "perfbench-results"),
    ]
    sys.exit(subprocess.run(bench, env=env).returncode)


if __name__ == "__main__":
    main()
