#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-steady --seed 1 --seconds 40 --trace 0

Builds perfbench/bench.exe with dune (incremental after the first run),
then runs it with the given arguments.  The last line of standard output
is the JSON result.  Traced runs (--trace 1) write their spans and the
OCaml runtime-events ring under _perfbench/ in the checkout.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: dune-project or lib/ missing; "
            "run from the root of a full checkout\n")
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 3
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    out_dir = os.path.abspath("_perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=out_dir)
    # Only the traced run starts the event ring, from inside the program.
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
