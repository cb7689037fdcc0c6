#!/usr/bin/env python3
"""Build lhws_bench from this source tree and run one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures bench/e2e,
which pulls in the root build for the runtime, into $CARGO_TARGET_DIR
(default .bench_build) and builds lhws_bench; later calls only rebuild
what changed. --trace 0 measures the end-to-end metrics, --trace 1 the
per-layer metrics; BENCHMARK.json names both sets. The last line of
stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits 1 when a check fails (with the JSON line, correct = false) and 2,
without a JSON line, when there is nothing to run (no build, no result).
Every file it writes, temporary files of the compiler included, lands
under the build directory.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def sub_env(bdir):
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(bdir):
    """Configure once, then build lhws_bench; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no root build under {ROOT}: nothing to build")
    os.makedirs(bdir, exist_ok=True)
    env = sub_env(bdir)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DBUILD_TESTING=OFF"],
                stdout=sys.stderr, env=env)
            if rc != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(
            ["cmake", "--build", bdir, "-j", jobs, "--target", "lhws_bench"],
            stdout=sys.stderr, env=env)
        if rc != 0:
            fail("build failed")
    return os.path.join(bdir, "lhws_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {MANIFEST}: {e}")
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        fail(f"unknown workload {args.workload}")

    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--traced")
    sys.stdout.flush()
    # Own process group, so a timeout also stops the node processes that
    # cluster_mr forks.
    proc = subprocess.Popen(cmd, env=sub_env(bdir), start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"lhws_bench did not finish within {RUN_TIMEOUT_S} s")
    try:
        with open(out) as f:
            res = json.load(f)
    except (OSError, ValueError):
        fail(f"lhws_bench exited {rc} without a result file")

    declared = manifest["per_layer" if args.trace else "end_to_end"]
    correct = rc == 0 and bool(res.get("correct"))
    metrics = {}
    for m in declared:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            correct = False
            continue
        if not args.trace and not got["value"] > 0:
            # End-to-end metrics are never 0; a 0 is a broken measurement.
            print(f"run.py: end-to-end metric {m['name']} reads "
                  f"{got['value']}", file=sys.stderr)
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
