#!/usr/bin/env python3
"""Pair runner: do two sets of lhws_bench runs agree within the bounds?

    python3 bench/e2e/agree.py [--a DIR] [--b DIR] [--runs K] [--seed S]

Runs K pairs of untraced runs of every workload, alternating A, B, A, B
so host drift lands on both sets alike. Pair i uses seed S + i on both
sides. A and B are checkout roots (default: the one holding this script),
so the same command compares a parent commit with a change, or a commit
with itself. For every (workload, end-to-end metric) it prints each set's
median, quartiles and n, and flags:

  worse       B's median is worse than A's by more than the metric's bound
  unresolved  a set's IQR / median exceeds the bound, so no difference
              within the bound can be told from noise (unless every B run
              beats every A run)

Workloads, run length, bounds and directions come from set A's
BENCHMARK.json. Exits 1 when any pair is worse or unresolved, else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


def one_run(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Each checkout builds into its own tree, even when the caller set one.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"agree.py: {' '.join(cmd)} failed ({p.returncode}):\n"
                 f"{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(metric, a, b):
    """(flag, relative change of B's median against A's, worse-is-positive)."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (bm - am) / am if am else 0.0
    bound = metric["bound"]
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    flags = []
    if change > bound:
        flags.append("worse")
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    if spread > bound and not b_always_better:
        flags.append("unresolved")
    return flags, change, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", default=ROOT, help="checkout root of set A")
    ap.add_argument("--b", default=ROOT, help="checkout root of set B")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]

    rows = []
    bad = 0
    for w in workloads:
        a_runs, b_runs = [], []
        for i in range(args.runs):
            a_runs.append(one_run(args.a, w, args.seed + i, seconds))
            b_runs.append(one_run(args.b, w, args.seed + i, seconds))
        for m in manifest["end_to_end"]:
            a = [r[m["name"]] for r in a_runs]
            b = [r[m["name"]] for r in b_runs]
            flags, change, spread = verdict(m, a, b)
            bad += bool(flags)
            rows.append({"workload": w, "metric": m["name"],
                         "bound": m["bound"], "n": len(a),
                         "a_quartiles": quartiles(a), "b_quartiles": quartiles(b),
                         "change": change, "spread": spread, "flags": flags})

    print(f"{'workload':11} {'metric':15} {'A q1 / median / q3':>30} "
          f"{'B q1 / median / q3':>30} {'change':>8} {'iqr':>6} "
          f"{'bound':>5}  n  flags")
    for r in rows:
        qa = " / ".join(f"{x:.4g}" for x in r["a_quartiles"])
        qb = " / ".join(f"{x:.4g}" for x in r["b_quartiles"])
        print(f"{r['workload']:11} {r['metric']:15} {qa:>30} {qb:>30} "
              f"{r['change']:+8.3f} {r['spread']:6.3f} {r['bound']:5.2f} "
              f"{r['n']:2d}  {','.join(r['flags']) or 'ok'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
