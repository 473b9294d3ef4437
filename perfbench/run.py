#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bcast --seed 1 --seconds 10 --trace 0

The Go build (binary, build cache, module cache and toolchain config) stays
under .bench_build in the checkout, or under $CARGO_TARGET_DIR when it is
set (relative paths are taken from the checkout root). The benchmark's last
line of output is one JSON object; see perfbench/main.go for its fields.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    # The benchmark imports the repository's packages through ../go.mod.
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        sys.stderr.write("perfbench: %s is not a repository checkout (no go.mod or internal/)\n" % root)
        return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    ran = subprocess.run(
        [
            binary,
            "-workload", args.workload,
            "-seed", str(args.seed),
            "-seconds", repr(args.seconds),
            "-trace", str(args.trace),
        ],
        cwd=root,
    )
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
