#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark (see NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the benchmark program and
maxtruss-serve from source with dune, runs the workload, and passes the
program's output through: the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["maximize-gowalla", "serve-read", "serve-churn"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SERVE_EXE = os.path.join("_build", "default", "bin", "maxtruss_serve.exe")
RUN_TIMEOUT_S = 165


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: not the root of a maxtruss checkout (no dune-project or lib/)",
              file=sys.stderr)
        return 2

    # Keep every build artifact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/maxtruss_serve.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-exe", SERVE_EXE]
    # A process group of its own, so that stopping it on a timeout also
    # stops any daemon it started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
