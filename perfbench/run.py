#!/usr/bin/env python3
"""Build the cdse benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a cdse checkout. The runner is built with dune into
the checkout's _build directory, with dune's shared cache off so nothing
is written outside the checkout (the first build compiles the whole
library, later ones are no-ops), then replaces this process. The last line
of standard output is the run's JSON result; build output goes to standard
error. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(build.returncode or 1)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
