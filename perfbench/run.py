#!/usr/bin/env python3
"""Build the designer benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload advise_design --seed 1 --seconds 30 --trace 0

The Go build cache, module cache and the binary live under .bench_build/ in
the current directory, so a run reads and writes nothing outside the
checkout. The last line of standard output is the benchmark's JSON result;
the exit code is non-zero when the build fails or a correctness check fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)

    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        # The go command keeps telemetry under the user config directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        HOME=os.path.join(build, "home"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    # The benchmark writes its span dump under the build directory.
    args = sys.argv[1:] + ["--out", build]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
