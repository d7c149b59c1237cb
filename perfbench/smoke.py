#!/usr/bin/env python3
"""Determinism smoke for the benchmark.

    python3 perfbench/smoke.py

Runs short traced runs of every workload and checks that
  - two runs with the same seed print the same op sequence, identical
    cache.* counts and an identical trace.bytes_per_event;
  - another seed changes the serve arrival schedule and the taskbag
    steal schedule (and with it analyze's cache.* counts).
Exits 1 and names the first difference otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED_A, SEED_B = 7, 8  # pick different taskbag sched seeds


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit("smoke: %s seed %d failed:\n%s" % (workload, seed, out.stderr))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("smoke: %s seed %d: output check failed" % (workload, seed))
    info = {line.split(":", 1)[0]: line.split(":", 1)[1].strip()
            for line in lines[:-1] if ":" in line}
    fixed = {k: v["value"] for k, v in result["metrics"].items()
             if k.startswith("cache.") or k == "trace.bytes_per_event"}
    return info, fixed


def main():
    problems = []
    for workload in ("analyze", "sweep", "stream", "serve"):
        info1, fixed1 = run(workload, SEED_A)
        info2, fixed2 = run(workload, SEED_A)
        if info1["sequence"] != info2["sequence"]:
            problems.append("%s: same seed, different op sequence" % workload)
        if fixed1 != fixed2:
            problems.append("%s: same seed, different counts: %s vs %s"
                            % (workload, fixed1, fixed2))
        if workload == "serve":
            info3, _ = run(workload, SEED_B)
            if info3["sequence"] == info1["sequence"]:
                problems.append("serve: another seed, same arrival schedule")
        if workload == "analyze":
            info3, fixed3 = run(workload, SEED_B)
            if info3["taskbag sched_seed"] == info1["taskbag sched_seed"]:
                problems.append("analyze: another seed, same steal schedule")
            if fixed3 == fixed1:
                problems.append("analyze: another steal schedule, same counts")
        print("%-8s ok  sequence %s  %s" % (workload, info1["sequence"][:12],
                                           fixed1), flush=True)
    if problems:
        sys.exit("smoke: " + "; ".join(problems))
    print("determinism smoke passed")


if __name__ == "__main__":
    main()
