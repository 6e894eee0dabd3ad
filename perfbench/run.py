#!/usr/bin/env python3
"""Build and run the d16sim benchmark; print one JSON result line.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest   fault detection + seed invariance
  python3 perfbench/run.py --pin        regenerate perfbench/pins.json

Run from the repository root. The first run configures and builds the
benchmark (the d16sim libraries plus perfbench/*.cc) into .bench_build/.
Every run writes its full record, with host provenance, under
.bench_run/records/; the last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RECORDS = os.path.join(".bench_run", "records")
WORKLOADS = ("paper-cold", "uarch-explore")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/ is missing: run from a d16sim checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def revision():
    """The git revision, or a digest of the sources when the checkout is
    not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def bench(args, timeout=RUN_TIMEOUT_S):
    """Run the binary; return its last stdout line as JSON."""
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: perfbench " + " ".join(args), 1)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("failed (exit %d): perfbench %s" % (p.returncode,
                                                 " ".join(args)), 1)
    return json.loads(lines[-1])


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace, extra=()):
    rev = revision()
    common = ["--workload", workload, "--seed", str(seed),
              "--revision", rev]
    rec = bench(common + ["--seconds", str(seconds), "--trace", str(trace)]
                + list(extra))
    os.makedirs(RECORDS, exist_ok=True)
    path = os.path.join(RECORDS, "%s-seed%d-trace%d-%d.json" % (
        workload, seed, trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
    return rec, path


def result_line(rec, trace):
    metrics = {}
    for name in declared_metrics(trace):
        if name not in rec["metrics"]:
            fail("metric %s missing from the %s record" % (name,
                                                          rec["workload"]), 1)
        metrics[name] = rec["metrics"][name]
    return {"correct": bool(rec["correct"]), "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def caught(label, rec):
    """Report whether a run with --inject-fault counted its corrupted
    row as a failure."""
    ok = not rec["correct"] and rec["failed"] >= 1
    print("%-22s corrupted row counted as failure: %s (failed=%d/%d, %s)"
          % (label, ok, rec["failed"], rec["attempted"],
             rec["failures"][:1]))
    return ok


def selftest():
    """Fault injection must be caught; a second seed must do the same
    deterministic work."""
    ok = True
    for w in WORKLOADS:
        bad, _ = run_one(w, 1, 1, 0, ["--inject-fault"])
        ok = caught(w, bad) and ok
        works = []
        for seed in (1, 2):
            rec, _ = run_one(w, seed, 1, 0)
            ok = ok and rec["correct"]
            work = rec["work"][0]
            work.pop("replayed_runs", None)
            works.append(work)
        same = works[0] == works[1]
        print("%-22s seed 1 vs 2 work identical: %s %s" % (w, same,
                                                           works[0]))
        ok = ok and same
    # uarch-explore's traced run also serves a request stream; its first
    # checked row is a served one.
    bad, _ = run_one("uarch-explore", 1, 1, 1, ["--inject-fault"])
    ok = caught("uarch-explore traced", bad) and ok
    good, _ = run_one("uarch-explore", 2, 1, 1)
    same = bad["requests"] == good["requests"]
    print("%-22s seed 1 vs 2 requests per class identical: %s %s"
          % ("uarch-explore traced", same, good["requests"]))
    return 0 if ok and good["correct"] and same else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one checked row (must be counted)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json is missing")
    build()
    if args.pin:
        return subprocess.run([BINARY, "--pin"]).returncode
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    rec, path = run_one(args.workload, args.seed, args.seconds, args.trace,
                        ["--inject-fault"] if args.inject_fault else [])
    summary = {k: rec[k] for k in ("workload", "seed", "trace", "host")}
    summary["record"] = path
    for k in ("latency_samples", "passes", "requests", "spans_file",
              "failures"):
        if k in rec:
            summary[k] = rec[k]
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result_line(rec, args.trace), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
