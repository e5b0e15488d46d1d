#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 10 --trace 0

The binary and the Go build cache live under .bench_build/ in the checkout,
so nothing is read from or written to a shared cache. Arguments are passed
to the benchmark unchanged; the exit code is the build's when the build
fails, the benchmark's otherwise.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if built.returncode != 0:
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
