#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stripe-write --seed 1 --seconds 10 --trace 0

The Go program in perfbench/ is built from the checkout's sources into
.bench_build/ (Go's build cache included, so nothing is written outside the
checkout) and then run with the same arguments. Its standard output, whose
last line is the result object, is passed through unchanged. If the build
fails or the run does not finish in time, this exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def go_env(root):
    env = dict(os.environ)
    build = os.path.join(root, BUILD_DIR)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    return env


def main():
    root = os.getcwd()
    env = go_env(root)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", os.path.join(root, BINARY), "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stderr)
        return 1
    # Memory the Go runtime hands back to the kernel is freed lazily
    # (MADV_FREE), so a later repetition reuses it without page faults:
    # fault cost on a shared host varies several-fold between repetitions.
    env["GODEBUG"] = "madvdontneed=0"
    # Go's flag package accepts --flag as well as -flag.
    proc = subprocess.Popen([os.path.join(root, BINARY)] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
