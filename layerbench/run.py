#!/usr/bin/env python3
"""Build the layered diagnosis benchmark and run it.

Run from the repository root:

    python3 layerbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Builds layerbench and aitia-serve from source into the build directory
($CARGO_TARGET_DIR, default .bench_build) with every Go cache inside it,
then replaces itself with the benchmark binary, passing the arguments
through. A failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "layerbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go", "cache"),
        "GOMODCACHE": os.path.join(build, "go", "mod"),
        "GOPATH": os.path.join(build, "go", "path"),
        "GOTMPDIR": os.path.join(build, "go", "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "go", "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bin_dir = os.path.join(build, "bin")
    for out, pkg in (("layerbench", "."), ("aitia-serve", "aitia/cmd/aitia-serve")):
        cmd = ["go", "build", "-o", os.path.join(bin_dir, out), pkg]
        done = subprocess.run(cmd, cwd=bench, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("layerbench: build of %s failed" % pkg, file=sys.stderr)
            sys.exit(2)
    binary = os.path.join(bin_dir, "layerbench")
    args = [binary, "-work-dir", os.path.join(build, "work"),
            "-serve-bin", os.path.join(bin_dir, "aitia-serve")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
