#!/usr/bin/env python3
"""Build and run the serving benchmark (perfbench_serve) from source.

One run:
    python3 perfbench/run.py --workload distance-uniform --seed 1 \
        --seconds 20 --trace 0

builds the library and the benchmark into .bench_build/perfbench under the
repository root (incremental after the first run), runs one workload and
passes its output through; the last line is the result JSON.

Repeat mode:
    python3 perfbench/run.py --workload distance-uniform --repeat 10 \
        [--seed 1] [--seconds 20] [--trace 0]

runs the workload N times with seeds seed..seed+N-1 and prints, per metric,
the median, the quartiles and the relative spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json, flagging every spread above its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_serve")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_serve", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the binary; returns the parsed result line (or exits)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %ds" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    series = {}
    units = {}
    for k in range(args.repeat):
        seed = args.seed + k
        res = run_once(args.workload, seed, args.seconds, args.trace,
                       echo=False)
        if not res["correct"]:
            fail("seed %d: incorrect answers" % seed)
        print("seed %d: attempted %d failed %d: %s" %
              (seed, res["attempted"], res["failed"],
               " ".join("%s=%.4g" % (k, m["value"])
                        for k, m in res["metrics"].items())), flush=True)
        for name, m in res["metrics"].items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    flagged = 0
    print("%-40s %14s %14s %14s %9s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  SPREAD > BOUND"
            flagged += 1
        print("%-40s %14.6g %14.6g %14.6g %9.4f %7s%s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else "%.3f" % bound, flag))
    print("%d metric(s) over their bound" % flagged)
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N seeds and report spread against bounds")
    args = ap.parse_args()
    build()
    if args.repeat > 0:
        return repeat(args)
    run_once(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
