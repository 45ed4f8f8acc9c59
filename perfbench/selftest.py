#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and a lossless trace.

    python3 perfbench/selftest.py [--workload W ...] [--seed N]

For each workload, runs the traced benchmark twice with the same seed
and checks that

  * every per-layer count (unit "count" or "bytes") repeats exactly, and
  * obs.trace_dropped is 0 in both runs.

Run from the root of a source checkout.  Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s: run.py exited with %d" % (workload, out.returncode))
    return json.loads(out.stdout.decode().strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=("solve", "lint", "faultsim"))
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    problems = []
    for w in a.workload or ["solve", "lint", "faultsim"]:
        first, second = traced_run(w, a.seed), traced_run(w, a.seed)
        counts = sorted(k for k, v in first.items() if v["unit"] in ("count", "bytes"))
        for k in counts:
            if first[k]["value"] != second[k]["value"]:
                problems.append("%s: %s differs between runs (%s vs %s)"
                                % (w, k, first[k]["value"], second[k]["value"]))
        for run in (first, second):
            if run["obs.trace_dropped"]["value"] != 0:
                problems.append("%s: %d trace events dropped"
                                % (w, run["obs.trace_dropped"]["value"]))
        print("%s: %d per-layer counts compared" % (w, len(counts)))
    for p in problems:
        print("FAIL " + p)
    if problems:
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
