#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark program
(perfbench/perfbench.exe) is built with dune inside the checkout, then
run once; its standard output ends with one JSON line holding the
metrics.  Build output goes to standard error, so that line stays last.
Exits non-zero, without a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

TARGET = os.path.join("perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def run(cmd, timeout, stdout):
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project and lib/ not found)")
    # dune's shared cache lives in the home directory; keep every build
    # artefact inside the checkout.
    os.environ.setdefault("DUNE_CACHE", "disabled")
    build = dune_command() + ["build", "--root", ".", "./" + TARGET]
    if run(build, BUILD_TIMEOUT_S, sys.stderr) != 0:
        fail("build failed")
    exe = os.path.join("_build", "default", TARGET)
    code = run([exe] + sys.argv[1:], RUN_TIMEOUT_S, None)
    if code != 0:
        fail("%s exited with code %d" % (TARGET, code))


if __name__ == "__main__":
    main()
