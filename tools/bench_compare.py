#!/usr/bin/env python3
"""Compare two sets of Google-Benchmark JSON artifacts.

Usage:
    tools/bench_compare.py BASELINE_DIR CANDIDATE_DIR [options]

Both directories hold BENCH_<name>.json files as produced by
bench/run_all.sh (the repo root itself is a valid directory). The script
prints a per-benchmark delta table for every benchmark present in both
sets and exits non-zero when any *gated* benchmark — by default the
engine-facing BM_Reduce*/BM_Integrate*/BM_Aggregate*/BM_Parallel*
families plus the store checkout and branch merge/rebase families
(BM_StoreCheckout*, BM_Merge*, BM_Rebase*), the undo they compute
(BM_Invert*) and the Document layer (BM_Document*, BM_SameAnnotated) —
regresses by more than the threshold
(default 10%). BM_StoreCommit* stays ungated: those families are fsync-bound, so
they measure the disk more than the code.

Comparisons are only meaningful between artifacts of the same build
type; the script refuses to compare when the recorded bench_build_type
(or, for older artifacts, library_build_type) differs.

Options:
    --threshold PCT   regression gate in percent (default 10)
    --gate REGEX      regex of gated benchmark names (default:
                      ^BM_(Reduce|Integrat|Aggregat|Parallel|StoreCheckout|Merge|Rebase|Invert|Document|SameAnnotated))
    --all-gated       gate every common benchmark, not just the default
                      families

Two ratios are printed for each set when both sets hold both of their
benchmarks (report only, never gated): BM_MergeFull/1 over
BM_MergeFastForward, and BM_ParallelReduce/2 over BM_ParallelReduce/1.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

# BM_StoreCommit* is deliberately absent: commit throughput is
# fsync-bound on the runner's disk, so it would gate on the disk rather
# than on the code.
DEFAULT_GATE = (
    r"^BM_(Reduce|Integrat|Aggregat|Parallel|StoreCheckout|Merge|Rebase"
    r"|Invert|Document|SameAnnotated)")

# Report-only (no gate) ratios: a one-commit full merge over a
# fast-forward, and reduce at two workers over one (the cost of the
# parallel path).
RATIOS = (
    ("BM_MergeFull/1", "BM_MergeFastForward"),
    ("BM_ParallelReduce/2", "BM_ParallelReduce/1"),
)


def ratio(times, pair):
    """pair[0] / pair[1] in `times`, or None if either is absent."""
    numerator, denominator = (times.get(name) for name in pair)
    if numerator is None or denominator is None:
        return None
    return numerator / denominator


def load_set(directory):
    """(name -> real_time_ns, name -> problem, build_types).

    A benchmark with an unusable measurement — absent, non-numeric or
    zero real_time, unknown time unit — lands in the problem map with a
    human-readable reason instead of being silently dropped: if it is
    gated, the comparison must fail by name, not pretend the benchmark
    never ran.
    """
    out = {}
    problems = {}
    build_types = set()
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        if "benchmarks" not in doc:
            continue  # e.g. BENCH_trace_overhead.json, a different schema
        ctx = doc.get("context", {})
        build_types.add(
            ctx.get("bench_build_type") or ctx.get("library_build_type") or "?"
        )
        for bench in doc["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            if not name:
                print(f"warning: unnamed benchmark entry in {path}",
                      file=sys.stderr)
                continue
            time_ns = bench.get("real_time")
            unit = bench.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
            if not isinstance(time_ns, (int, float)) or math.isnan(time_ns):
                problems[name] = f"real_time absent or non-numeric in {path.name}"
            elif scale is None:
                problems[name] = f"unknown time_unit {unit!r} in {path.name}"
            elif time_ns <= 0:
                problems[name] = f"non-positive real_time ({time_ns}) in {path.name}"
            else:
                out[name] = time_ns * scale
    return out, problems, build_types


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=10.0)
    parser.add_argument("--gate", default=DEFAULT_GATE)
    parser.add_argument("--all-gated", action="store_true")
    args = parser.parse_args()

    base, base_problems, base_types = load_set(args.baseline)
    cand, cand_problems, cand_types = load_set(args.candidate)
    # A set whose entries all failed to parse is empty; a set whose
    # entries measured badly still carries names to fail on below.
    if not base and not base_problems:
        print(f"error: no benchmark data in {args.baseline}", file=sys.stderr)
        return 2
    if not cand and not cand_problems:
        print(f"error: no benchmark data in {args.candidate}", file=sys.stderr)
        return 2
    if base_types != cand_types or len(base_types) != 1:
        print(
            f"error: build types differ (baseline {sorted(base_types)}, "
            f"candidate {sorted(cand_types)}); regenerate both sets from "
            "the same CMAKE_BUILD_TYPE before comparing",
            file=sys.stderr,
        )
        return 2

    gate_re = re.compile(args.gate)

    def is_gated(name):
        return args.all_gated or gate_re.search(name) is not None

    # A gated benchmark that the baseline measured must be measured by
    # the candidate too: a missing or unusable candidate entry is a
    # failure with a name and a reason, never a crash or a silent skip.
    failures = []  # (name, reason) pairs
    for name in sorted(set(base) | set(base_problems)):
        if not is_gated(name):
            continue
        if name in base_problems:
            # An unusable baseline measurement makes the comparison
            # meaningless whatever the candidate measured.
            failures.append((name, base_problems[name]))
        elif name in cand:
            continue
        elif name in cand_problems:
            failures.append((name, cand_problems[name]))
        else:
            failures.append((name, "missing from candidate"))
    for name in sorted(cand_problems):
        if is_gated(name) and name not in base and name not in base_problems:
            failures.append((name, cand_problems[name]))

    common = sorted(set(base) & set(cand))
    if not common and not failures:
        print("error: no common benchmarks", file=sys.stderr)
        return 2

    if common:
        width = max(len(n) for n in common)
        print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  "
              f"{'delta':>8}  gate")
        for name in common:
            b, c = base[name], cand[name]
            delta = (c / b - 1.0) * 100.0
            gated = is_gated(name)
            verdict = ""
            if gated:
                verdict = "FAIL" if delta > args.threshold else "ok"
                if delta > args.threshold:
                    failures.append((name, f"regressed {delta:+.1f}%"))
            print(f"{name:<{width}}  {b:>12.0f}  {c:>12.0f}  {delta:>+7.1f}%  "
                  f"{verdict}")

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        print(f"\nonly in baseline: {', '.join(only_base)}")
    if only_cand:
        print(f"only in candidate: {', '.join(only_cand)}")
    for pair in RATIOS:
        ratios = [(label, ratio(times, pair))
                  for label, times in (("baseline", base), ("candidate", cand))]
        if any(value is not None for _, value in ratios):
            shown = ", ".join(
                f"{label} " + ("n/a" if value is None else f"{value:.2f}x")
                for label, value in ratios)
            print(f"\n{pair[0]} / {pair[1]}: {shown}")

    if failures:
        print(
            f"\n{len(failures)} gated benchmark(s) failed the comparison "
            f"(threshold {args.threshold:.0f}%):",
            file=sys.stderr,
        )
        for name, reason in failures:
            print(f"  {name}: {reason}", file=sys.stderr)
        return 1
    print(f"\nall gated benchmarks within {args.threshold:.0f}% "
          f"({len(common)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
