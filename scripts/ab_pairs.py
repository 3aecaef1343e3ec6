#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench: a base revision against the working tree.

    python3 scripts/ab_pairs.py --workload dsm-radix --seed 11 \\
        [--base HEAD] [--pairs 10] [--seconds 50] [--work .bench_build/ab]

Run from anywhere inside the repository. Builds perfbench (Release) twice:
from `--base`, exported with `git archive` into `<work>/<sha>/src` (reused
on later runs, so the base builds once), and from the working tree, into
`<work>/tree`. Then runs `--pairs` pairs of

    perfbench --workload W --seed S --seconds T --trace 0

the command perfbench/run.py runs, with the side that goes first alternating
from pair to pair. For each end-to-end metric of BENCHMARK.json it prints
both sides' quartiles (q1 / median / q3), how many pairs the change won
(ties count for neither side), whether the gain rule holds (the change
wins at least nine tenths of the pairs and its median differs from the
base's by more than the base's interquartile range), and whether the
change's median is worse than the base's by more than the metric's bound.

Exits 1 if a run fails or is not correct, or if a simulated metric (every
end-to-end metric but the host-time and memory ones) differs between any
two runs: both sides must simulate the same thing.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HOST_METRICS = {"wall_s", "setup_s", "peak_rss_mb"}


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def build(src, out):
    """Configure and build perfbench/ of the checkout at `src` into `out`."""
    subprocess.run(["cmake", "-S", os.path.join(src, "perfbench"), "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=subprocess.DEVNULL, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   stdout=subprocess.DEVNULL, check=True)
    return os.path.join(out, "perfbench")


def export(root, sha, dest):
    """Write the tree of commit `sha` to `dest` once."""
    if os.path.isdir(dest):
        return
    tmp = dest + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    archive = subprocess.Popen(["git", "-C", root, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"ab_pairs: git archive {sha} failed")
    os.rename(tmp, dest)


def run(binary, args):
    """One perfbench run; returns its metrics as {name: value}."""
    proc = subprocess.run([binary, *args], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"ab_pairs: {binary} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.exit(f"ab_pairs: {binary} {' '.join(args)}: not correct: "
                 f"{lines[-1][:300]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--base", default="HEAD",
                    help="revision to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--work", default=None,
                    help="build directory (default <repo>/.bench_build/ab)")
    args = ap.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    end_to_end = bench["end_to_end"]
    work = os.path.abspath(args.work or os.path.join(root, ".bench_build",
                                                     "ab"))
    sha = git(root, "rev-parse", "--verify", args.base + "^{commit}")

    export(root, sha, os.path.join(work, sha, "src"))
    sides = {
        "base": build(os.path.join(work, sha, "src"),
                      os.path.join(work, sha, "build")),
        "change": build(root, os.path.join(work, "tree")),
    }

    perf_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", "0"]
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            runs[side].append(run(sides[side], perf_args))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
            f"{m['name']} {runs['base'][-1][m['name']]:.4g}/"
            f"{runs['change'][-1][m['name']]:.4g}"
            for m in end_to_end if m["name"] in HOST_METRICS), flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s, base {sha[:10]} vs working tree "
          "(q1 / median / q3; wins: pairs the change was better)")
    need = math.ceil(0.9 * args.pairs)
    sim_moved = []
    for m in end_to_end:
        name = m["name"]
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        if name not in HOST_METRICS:
            same = len(set(base + change)) == 1
            if not same:
                sim_moved.append(name)
            print(f"  {name:12} {'identical' if same else 'DIFFERS'} "
                  f"(base {base[0]:.6g}, change {change[0]:.6g} {m['unit']})")
            continue
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
        bq = quartiles(base)
        cq = quartiles(change)
        gap = sign * (bq[1] - cq[1])
        holds = wins >= need and gap > bq[2] - bq[0]
        within = -gap <= m["bound"] * bq[1]
        print(f"  {name:12} base {bq[0]:.4g} / {bq[1]:.4g} / {bq[2]:.4g}  "
              f"change {cq[0]:.4g} / {cq[1]:.4g} / {cq[2]:.4g} {m['unit']}  "
              f"median {100 * (cq[1] - bq[1]) / bq[1]:+.1f} %  "
              f"wins {wins}/{args.pairs}  gain rule "
              f"{'holds' if holds else 'does not hold'}  "
              f"{'within' if within else 'PAST'} its {m['bound']:g} bound")
    if sim_moved:
        print("simulated metrics differ: " + ", ".join(sim_moved))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
