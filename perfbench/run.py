#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload analyze|sweep|stream|serve \
        --seed N --seconds S --trace 0|1

Run from the root of the repository.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Everything the run writes stays under the checkout: dune's _build
directory and .bench_work/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze", "sweep", "stream", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune is not installed")


def build():
    """Build the benchmark and the CLI (whose `serve` is the daemon)."""
    targets = ["./perfbench/bench.exe", "./bin/falseshare_cli.exe"]
    cmd = dune_command() + ["build", "--root", ROOT] + targets
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if done.returncode != 0:
        sys.exit("run.py: build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: no dune-project at %s; nothing to build" % ROOT)
    build()

    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [
        exe, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(ROOT, "_build", "default", "bin",
                              "falseshare_cli.exe"),
        "--expected", os.path.join(HERE, "expected.json"),
        "--sources", os.path.join(HERE, "sources"),
        "--work", work,
    ]
    # its own process group, so stopping it also stops the daemon it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
