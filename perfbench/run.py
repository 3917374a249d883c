#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload storm-4k --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's sources into
the build directory (CARGO_TARGET_DIR when set, else .bench_build), with the
Go build cache kept there too, so nothing is read or written outside the
checkout apart from the Go toolchain itself. Build output goes to standard
error; the program's report, ending in one JSON line, goes to standard
output. The exit status is the program's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # stop a hung run before a 180 s limit on the whole command


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    exe = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    spans = os.path.join(build, "perfbench",
                         "spans-%s-%d.json" % (args.workload, args.seed))
    cmd = [exe, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-spans", spans]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
