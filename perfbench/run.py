#!/usr/bin/env python3
"""Build the verifier benchmark from source and run one workload.

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  The build goes to .bench_build/
(the harness keeps its scratch files there too); the last line of
standard output is the run's JSON result.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a full checkout "
                         "(dune-project and lib/ not found)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
