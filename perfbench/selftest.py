#!/usr/bin/env python3
"""Seed self-test: the seed alone decides what is simulated.

    python3 perfbench/selftest.py [--seed 1] [--seconds 1] [workload ...]

For each workload (default: all four) it runs the benchmark twice with
--seed and once with --seed + 1, all with --trace 1 so the traced run's
fingerprints are checked against the untraced run's too. It requires:
  * both runs of one seed give identical simulated metrics and per-layer
    fingerprints (and every run is correct);
  * the other seed changes the simulated metrics and fingerprints, which
    proves the seed reaches the inputs.
dsm-radix also runs --check-harness: the benchmark's mirrored application
harness must reproduce apps::run_app exactly. Exits 1 on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["stream", "kv-read", "kv-write", "dsm-radix"]


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    if workload == "dsm-radix":
        cmd.append("--check-harness")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True,
                         check=True).stdout.splitlines()
    result = json.loads(out[-1])
    detail = json.loads(next(l for l in out if l.startswith("detail "))[7:])
    if not result["correct"]:
        for line in out:
            if line.startswith(("FAIL", "MISMATCH")):
                print("   ", line)
    return result, detail


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()

    ok = True
    for w in args.workloads:
        a_res, a = run(w, args.seed, args.seconds)
        b_res, b = run(w, args.seed, args.seconds)
        c_res, c = run(w, args.seed + 1, args.seconds)
        checks = {
            "every run correct": all(r["correct"]
                                     for r in (a_res, b_res, c_res)),
            "same seed, same simulated metrics": a["sim"] == b["sim"],
            "same seed, same fingerprints":
                a["fingerprints"] == b["fingerprints"],
            "other seed, other simulated metrics": a["sim"] != c["sim"],
            "other seed, other fingerprints":
                a["fingerprints"] != c["fingerprints"],
        }
        for what, good in checks.items():
            print(f"{w:10} {'ok  ' if good else 'FAIL'} {what}")
            ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
