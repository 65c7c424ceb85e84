#!/usr/bin/env python3
"""Perf-trajectory gate: diff a fresh BENCH_micro_datalog.json against the
committed bench/baseline.json and fail CI on wall-time regressions in the
gated benchmark families (BM_TupleStore*, BM_TransitiveClosure*,
BM_RepeatedQuery*, BM_BulkLoad*, BM_JoinPlanner*, BM_Serving*,
BM_PathKernel*, BM_Update*).
Both sides are reduced to the per-benchmark median of their recorded
repetitions before comparing.

Hosted runners are not the machine the baseline was recorded on, so the
default comparison is *calibrated*: every gated benchmark's fresh/baseline
ratio is divided by the median ratio across all gated benchmarks, which
cancels uniform machine-speed differences and trips only when one
benchmark regresses relative to the rest of the suite. Use --absolute for
same-machine comparisons (e.g. a local before/after run).

Usage:
  bench_compare.py fresh.json [baseline.json]   # gate (default CI mode)
  bench_compare.py --summarize fresh.json       # print table, no gate
  bench_compare.py --update fresh.json          # rewrite the baseline

Exit status: 0 = no regression, 1 = regression or missing coverage,
2 = usage/parse error.
"""

import argparse
import json
import re
import shutil
import statistics
import sys

DEFAULT_BASELINE = "bench/baseline.json"
# The gate includes the serving rows (BM_Serving_* at 1/2/8 client
# threads over one shared engine). The committed baseline's multi-thread
# serving rows were captured on a 1-CPU host, so on a multi-core runner
# they come out *faster* relative to the rest of the suite — a low-side
# calibration outlier, which can never trip the high-side threshold; the
# median across ~30 gated rows absorbs it. What the gate buys for them
# today is coverage loss detection (a row vanishing from the bench binary
# fails CI); re-capturing the baseline on a multi-core host adds
# regression detection.
GATE_PATTERN = (
    r"^(BM_TupleStore|BM_TransitiveClosure|BM_RepeatedQuery"
    r"|BM_BulkLoad|BM_JoinPlanner|BM_Serving|BM_PathKernel|BM_Update)"
)


def load_benchmarks(path):
    """Returns {name: real_time_ns} for per-iteration benchmark entries.

    With --benchmark_repetitions=N (see scripts/check.sh) each benchmark
    contributes N iteration rows under the same name; the *median* of the
    repetitions is used on both sides of the gate, which cuts the
    run-to-run noise of hosted CI runners.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    samples = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        samples.setdefault(b["name"], []).append(float(b["real_time"]))
    return {name: statistics.median(times) for name, times in samples.items()}


def fmt_ns(ns):
    if ns >= 1e6:
        return f"{ns / 1e6:10.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:10.3f} us"
    return f"{ns:10.1f} ns"


def summarize(fresh):
    width = max((len(n) for n in fresh), default=0)
    for name in sorted(fresh):
        print(f"  {name:<{width}}  {fmt_ns(fresh[name])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="fresh BENCH_micro_datalog.json")
    ap.add_argument("baseline", nargs="?", default=DEFAULT_BASELINE)
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated relative slowdown (default 0.15)")
    ap.add_argument("--gate", default=GATE_PATTERN,
                    help="regex of benchmark names the gate applies to")
    ap.add_argument("--absolute", action="store_true",
                    help="skip machine-speed calibration (same-host runs)")
    ap.add_argument("--summarize", action="store_true",
                    help="print the fresh results and exit (no gate)")
    ap.add_argument("--update", action="store_true",
                    help="copy the fresh JSON over the baseline and exit")
    args = ap.parse_args()

    fresh = load_benchmarks(args.fresh)
    if args.summarize:
        summarize(fresh)
        return 0
    if args.update:
        shutil.copyfile(args.fresh, args.baseline)
        print(f"bench_compare: baseline updated from {args.fresh}")
        return 0

    baseline = load_benchmarks(args.baseline)
    gate = re.compile(args.gate)
    gated = sorted(n for n in baseline if gate.search(n))
    if not gated:
        print("bench_compare: baseline has no gated benchmarks",
              file=sys.stderr)
        return 1

    missing = [n for n in gated if n not in fresh]
    if missing:
        print("bench_compare: FAIL — gated benchmarks missing from fresh "
              f"run (coverage loss): {', '.join(missing)}")
        return 1

    ratios = {n: fresh[n] / baseline[n] for n in gated}
    scale = 1.0 if args.absolute else statistics.median(ratios.values())
    mode = "absolute" if args.absolute else f"calibrated (median ratio {scale:.3f})"
    print(f"bench_compare: {mode}, threshold +{args.threshold:.0%}")

    width = max(len(n) for n in gated)
    failures = []
    for name in gated:
        delta = ratios[name] / scale - 1.0
        verdict = "ok"
        if delta > args.threshold:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"  {name:<{width}}  base {fmt_ns(baseline[name])}  "
              f"fresh {fmt_ns(fresh[name])}  {delta:+7.1%}  {verdict}")
    new = sorted(n for n in fresh if gate.search(n) and n not in baseline)
    for name in new:
        print(f"  {name:<{width}}  (new)            "
              f"fresh {fmt_ns(fresh[name])}")

    if failures:
        print(f"bench_compare: FAIL — {len(failures)} regression(s) "
              f"beyond +{args.threshold:.0%}: {', '.join(failures)}")
        return 1
    print("bench_compare: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
