#!/usr/bin/env python3
"""Steadiness tool: run one workload k times and print each metric's spread.

    python3 perfbench/steady.py --workload kv-write [--runs 10] [--seconds S]
        [--first-seed 1] [--trace 0] [--record]

--seconds defaults to BENCHMARK.json's run_seconds.

Each run uses its own seed (first-seed, first-seed+1, ...). For every metric
it prints the median, the first and third quartile (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the bound BENCHMARK.json
sets for end-to-end metrics. --record stores the medians and quartiles for
this workload in perfbench/baseline.json, the numbers bounds are set from.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except OSError:
        return {}


def main():
    doc = spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    default=doc.get("run_seconds", 10))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    values, bad = {}, 0
    for i in range(args.runs):
        res = run_once(args.workload, args.first_seed + i, args.seconds,
                       args.trace)
        bad += 0 if res["correct"] else 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    limits = {m["name"]: m["bound"] for m in doc.get("end_to_end", [])}
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {bad} incorrect")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    summary = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}

    if args.record:
        path = os.path.join(HERE, "baseline.json")
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError:
            doc = {}
        key = f"{args.workload}/trace{args.trace}"
        doc[key] = {"runs": args.runs, "first_seed": args.first_seed,
                    "seconds": args.seconds, "metrics": summary}
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded {key} in {os.path.relpath(path, ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
