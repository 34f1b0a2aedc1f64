#!/usr/bin/env python3
"""Demibench entry point.

    python3 demibench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout of this repository. Builds the
benchmark from source with dune (a no-op when it is up to date), then
runs one workload and passes its output through; the last line of
standard output is the JSON result. Exits non-zero, without a result,
when the build or the run fails. See demibench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "demibench", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("demibench: dune not found on PATH")


def main():
    build = subprocess.run(
        # The shared dune cache lives outside the checkout; keep the
        # build's writes inside it.
        dune() + ["build", "--root", ROOT, "--cache=disabled", "./demibench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("demibench: build failed")
    run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
