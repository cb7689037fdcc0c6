#!/usr/bin/env python3
"""lhws_bench_smoke: every workload, untraced and traced, in --smoke mode.

Asserts that each run passes its checks with no failed operation, that it
prints every metric BENCHMARK.json declares with the declared unit, and
that the layers predicted idle read 0 (the control of the layer table in
bench/e2e/README.md).

    python3 smoke.py --bin BUILD/lhws_bench --manifest BENCHMARK.json --out DIR
"""
import argparse
import json
import os
import subprocess
import sys

# (workload, metric prefix or name) pairs that must read exactly 0.
IDLE = [
    ("fj_compute", "io."), ("fj_compute", "load."), ("fj_compute", "dist."),
    ("fj_compute", "runtime.suspensions_per_op"),
    ("fj_compute", "core.latency_overshoot_us"),
    ("fj_latency", "io."), ("fj_latency", "load."), ("fj_latency", "dist."),
    ("rpc_open", "dist."), ("rpc_open", "core.latency_overshoot_us"),
    ("cluster_mr", "load."), ("cluster_mr", "core.latency_overshoot_us"),
]


def run_all(exe, out, traced):
    cmd = [exe, "--workload", "all", "--seed", "7", "--smoke", "--out", out]
    if traced:
        cmd.append("--traced")
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=170).returncode
    with open(out) as f:
        return rc, json.load(f)["workloads"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.manifest) as f:
        manifest = json.load(f)
    os.makedirs(args.out, exist_ok=True)
    errors = []
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        rc, results = run_all(args.bin, os.path.join(
            args.out, "traced.json" if traced else "untraced.json"), traced)
        if rc != 0:
            errors.append(f"traced={traced}: lhws_bench exited {rc}")
        for w in manifest["workloads"]:
            name = w["name"]
            res = results.get(name)
            if res is None:
                errors.append(f"{name}: no result (traced={traced})")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                errors.append(f"{name}: correct={res['correct']} "
                              f"failed={res['failed']} traced={traced}")
            if not traced and res["diagnostics"]["failed_ratio"]["value"] != 0:
                errors.append(f"{name}: failed_ratio != 0")
            for m in manifest[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{name}: {m['name']} missing or not in "
                                  f"{m['unit']} (traced={traced})")
                elif not traced and not got["value"] > 0:
                    errors.append(f"{name}: {m['name']} = {got['value']}")
            if traced:
                for wl, prefix in IDLE:
                    if wl != name:
                        continue
                    for metric, v in res["metrics"].items():
                        if metric.startswith(prefix) and v["value"] != 0:
                            errors.append(f"{name}: predicted idle {metric} "
                                          f"= {v['value']}")
    for e in errors:
        print("FAIL", e)
    print("ok" if not errors else f"{len(errors)} failures")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
