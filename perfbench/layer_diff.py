#!/usr/bin/env python3
"""Per-layer deltas between two sets of traced runs.

  python3 perfbench/layer_diff.py --a REC... --b REC... [--workload W]

Each REC is a record written by `run.py --trace 1` (under
.bench_run/records/) or a directory of them. For every per-layer
metric the report prints each side's median and spread (the distance
between the first and third quartile, as a share of the median), the
change of B against A, and a flag when that change is larger than the
spread of both sides (given at least three runs a side): the layers a
perf change can name as moved.
Records of different workloads or hosts are refused.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Fewer runs than this give no usable quartiles.
MIN_RUNS = 3


def load(paths, workload):
    recs = []
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "*.json"))) \
            if os.path.isdir(p) else [p]
        for f in files:
            with open(f) as fh:
                rec = json.load(fh)
            if rec.get("trace") != 1:
                continue
            if workload and rec["workload"] != workload:
                continue
            recs.append(rec)
    return recs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def host_key(rec):
    h = rec["host"]
    return (h["nproc"], h["cpu_model"], h["compiler"], h["build_type"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True)
    ap.add_argument("--b", nargs="+", required=True)
    ap.add_argument("--workload")
    args = ap.parse_args()
    a, b = load(args.a, args.workload), load(args.b, args.workload)
    if not a or not b:
        sys.exit("layer_diff: no traced records on one side")
    workloads = {r["workload"] for r in a + b}
    if len(workloads) != 1:
        sys.exit("layer_diff: mixed workloads %s; pass --workload"
                 % sorted(workloads))
    hosts = {host_key(r) for r in a + b}
    if len(hosts) != 1:
        sys.exit("layer_diff: records come from different hosts: %s"
                 % sorted(hosts))

    print("workload %s, host %s; A: %d runs (%s), B: %d runs (%s)" % (
        workloads.pop(), hosts.pop(), len(a),
        sorted({r["host"]["revision"] for r in a}), len(b),
        sorted({r["host"]["revision"] for r in b})))
    print("%-26s %14s %7s %14s %7s %8s" % (
        "metric", "A median", "A iqr", "B median", "B iqr", "B vs A"))
    for name in sorted(a[0]["metrics"]):
        va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
        vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
        if not va or not vb:
            continue
        ma, sa = spread(va)
        mb, sb = spread(vb)
        delta = (mb - ma) / abs(ma) if ma else 0.0
        moved = (min(len(va), len(vb)) >= MIN_RUNS and ma != mb and
                 abs(delta) > max(sa, sb))
        print("%-26s %14.6g %6.1f%% %14.6g %6.1f%% %+7.1f%% %s" % (
            name, ma, 100 * sa, mb, 100 * sb, 100 * delta,
            "MOVED" if moved else ""))
    if min(len(a), len(b)) < MIN_RUNS:
        print("(no MOVED flags: each side needs %d runs for a spread)"
              % MIN_RUNS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
