#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload dense-801 --seed 1 --seconds 55 --trace 0

Run from the root of a source tree. Builds perfbench/bench.exe with dune
into .bench_build/ (dune's shared cache off, so nothing is written
outside the tree), then runs it on one domain: BA_INTRA_JOBS and BA_JOBS
are pinned to 1 and their incoming values recorded. The benchmark's
output is passed through; its last line is the JSON result. Exits
nonzero, without a result, if the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=stdout,
        stderr=sys.stderr,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: {cmd[0]} timed out after {timeout} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    code = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display=quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr,
    )
    if code != 0:
        sys.exit(f"run.py: dune build failed with code {code}")

    env = dict(os.environ)
    for var in ("BA_INTRA_JOBS", "BA_JOBS"):
        incoming = env.get(var)
        if incoming not in (None, "1"):
            print(f"run.py: {var}={incoming} pinned to 1", flush=True)
        env[var] = "1"
    code = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, stdout=sys.stdout, env=env,
    )
    if code != 0:
        sys.exit(f"run.py: bench.exe exited with code {code}")


if __name__ == "__main__":
    main()
