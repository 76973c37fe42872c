#!/usr/bin/env python3
"""Benchmark entry point. Run from the repository root.

One run of one workload (prints the result object as the last line):

    python3 perfbench/run.py --workload cold_search --seed 1 --seconds 45 --trace 0

Steadiness mode: every workload BENCHMARK.json lists (or those named) N
times with seeds 1..N, then seed 1 once more; prints per metric the
median, quartiles and spread (q3 - q1) / median next to the bound in
BENCHMARK.json:

    python3 perfbench/run.py --steady 10 [--workload W ...] [--seconds S]

Every call configures and builds mse_serve and mse_bench into
.bench_build (incrementally after the first). Per-run files (daemon
log, store copies, outcomes.tsv, spans.jsonl) go to .bench_out/, which
also records the digest of a round's answers for every (workload, seed)
per build of the two binaries: a later run of the same seed on the same
binaries that prints another digest fails. Changed code starts a fresh
record, so a change that legitimately moves the answers is not flagged.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
OUT_DIR = Path(".bench_out")
WORKLOADS = ["cold_search", "warm_near"]
SERVE = BUILD_DIR / "npumse" / "tools" / "mse_serve"
BENCH = BUILD_DIR / "mse_bench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Configuring every time is cheap and keeps the target list current.
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "mse_serve", "mse_bench"]]
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)


def fingerprint():
    """Hash of the code under test: the built daemon and client."""
    h = hashlib.sha256()
    for binary in (SERVE, BENCH):
        h.update(binary.read_bytes())
    return h.hexdigest()[:16]


def check_digest(workload, seed, digest):
    """Record the digest of (build, workload, seed); False if the same
    build printed another digest for the same seed before."""
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{fingerprint()}:{workload}:{seed}"
    if key in known and known[key] != digest:
        print(f"error: digest {digest} for {key}, earlier runs printed "
              f"{known[key]}")
        return False
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def run_once(workload, seed, seconds, trace, echo=True):
    """One mse_bench run. Returns the result object, or None on failure."""
    out = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(BENCH),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve", str(SERVE),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench: mse_bench exited {proc.returncode} without a result")
        return None
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")),
                  "none")
    if digest == "none" or not check_digest(workload, seed, digest):
        result["correct"] = False
    result["digest"] = digest
    return result


def single(args):
    build()
    OUT_DIR.mkdir(exist_ok=True)
    result = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    if result is None:
        sys.exit(1)
    del result["digest"]
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


def steady(args):
    build()
    OUT_DIR.mkdir(exist_ok=True)
    bench = Path("BENCHMARK.json")
    bounds = {}
    listed = WORKLOADS
    if bench.exists():
        spec = json.loads(bench.read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        listed = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or listed
    ok = True
    summary = {}
    for w in workloads:
        values = {}
        seeds = list(range(args.seed, args.seed + args.steady)) + [args.seed]
        for i, seed in enumerate(seeds):
            t0 = time.time()
            r = run_once(w, seed, args.seconds, 0, echo=False)
            if r is None or not r["correct"] or r["failed"]:
                log(f"{w} seed {seed}: FAILED ({r})")
                ok = False
                continue
            log(f"{w} seed {seed}: {time.time() - t0:.1f} s, digest "
                f"{r['digest']}, attempted {r['attempted']}")
            if i == len(seeds) - 1:
                break  # The repeat only checks the digest.
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {len(seeds) - 1} seeds from {args.seed}")
        print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        summary[w] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "values": vals}
        sys.stdout.flush()
    (OUT_DIR / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    args = p.parse_args()
    if args.steady:
        steady(args)
    elif not args.workload or len(args.workload) != 1:
        p.error("a single run needs exactly one --workload")
    else:
        single(args)


if __name__ == "__main__":
    main()
