#!/usr/bin/env python3
"""Summarize a BENCH_model_sweep.json produced by bench_model_sweep.

Usage:
    ./build/bench/bench_model_sweep
    python3 tools/sweep_report.py BENCH_model_sweep.json

Prints, per (model, arch) sweep: the dedup savings (unique search jobs
vs. total layers and the cost-model samples that saved), the warm/cold
split of the unique jobs, and the warm-start sample speedup against the
cold-start reference run. Exits non-zero if any sweep was
non-deterministic across thread counts — the same check the bench
itself enforces, usable on an archived JSON.

Stdlib only; no third-party dependencies.
"""
import json
import sys


def pct(num, den):
    return 100.0 * num / den if den else 0.0


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    print(f"model sweep report ({sys.argv[1]})")
    print(f"  detected cores: {doc.get('detected_cores', '?')}, "
          f"samples/layer: {doc.get('samples_per_layer', '?')}, "
          f"seed: {doc.get('seed', '?')}")

    header = (f"{'model':<12} {'arch':<8} {'layers':>6} {'jobs':>5} "
              f"{'dedup':>6} {'samples saved':>14} "
              f"{'warm speedup':>12} {'determ.':>8}")
    print()
    print(header)
    print("-" * len(header))

    ok = True
    for s in doc.get("sweeps", []):
        saved = s["samples_without_dedup"] - s["samples_spent"]
        wvc = s.get("warm_vs_cold", {})
        det = s.get("deterministic_threads_1_vs_4", False)
        ok = ok and det
        print(f"{s['model']:<12} {s['arch']:<8} {s['total_layers']:>6} "
              f"{s['unique_jobs']:>5} {s['dedup_hits']:>6} "
              f"{saved:>7} ({pct(saved, s['samples_without_dedup']):.0f}%) "
              f"{wvc.get('sample_speedup', 1.0):>11.2f}x "
              f"{'yes' if det else 'NO':>8}")

    print()
    for s in doc.get("sweeps", []):
        wvc = s.get("warm_vs_cold", {})
        if not wvc.get("jobs_compared"):
            continue
        print(f"  {s['model']}/{s['arch']}: "
              f"{wvc['reached_cold_quality']}/{wvc['jobs_compared']} "
              f"warm jobs reached the cold run's incumbent EDP "
              f"(mean {wvc['mean_samples_warm_to_cold_edp']:.0f} vs "
              f"{wvc['mean_samples_cold_to_incumbent']:.0f} samples)")

    if not ok:
        sys.exit("ERROR: at least one sweep was not deterministic "
                 "across MSE_THREADS=1 and 4")


if __name__ == "__main__":
    main()
