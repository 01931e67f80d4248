#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cc-h1 --seed 1 --seconds 20 --trace 0

The benchmark is the Go program in perfbench/ (its own module, built
against the simulator's source in the checkout). Everything the build and
the run write goes under $CARGO_TARGET_DIR, or .bench_build when that is
unset, inside the checkout: the Go build cache, the binary, span files
and full result records. The last line of standard output is the JSON
result; build output goes to standard error.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in (os.path.join(root, "go.mod"), os.path.join(bench, "go.mod")):
        if not os.path.isfile(need):
            fail("%s not found: run from the root of a slacksim checkout" % os.path.relpath(need, root))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)  # the benchmark sets its own host-core budget
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if build.returncode != 0:
        fail("build failed")
    args = [binary, "--out", os.path.join(out, "out")] + sys.argv[1:]
    try:
        run = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
