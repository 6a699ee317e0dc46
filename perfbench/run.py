#!/usr/bin/env python3
"""Build mvkv's benchmark from source and run it.

    python3 perfbench/run.py --workload point-zipf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go program is built into
.bench_build/ (its build cache too), so the run reads and writes only inside
the checkout; the build needs the repository's own go.mod beside perfbench/
and fails without it. All arguments go to the program (see README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out = os.path.join(ROOT, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
