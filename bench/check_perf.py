#!/usr/bin/env python3
"""Perf-regression gate over micro_sim_throughput JSON output.

Compares a current benchmark run against the committed baseline
(bench/baseline.json) and fails when any throughput row regresses by
more than the allowed fraction.

CI runners are not the machine the baseline was recorded on and their
absolute speed varies run to run, so raw ops/s comparisons would flake
constantly. Instead every row is normalised by a same-run reference row
(BM_CacheAccess): the *relative* throughput of, say, BM_TraceRead vs
the cache model is a property of the code, not of the runner. The gate
fails only when

    current_rel(name) < (1 - threshold) * baseline_rel(name)

with current_rel(name) = items_per_second(name) / items_per_second(ref)
measured within the same JSON file.

Rows present in the current run but absent from the baseline fail the
gate (pass --allow-new to warn instead): a benchmark that never joins
the baseline is a benchmark the gate silently ignores forever. A row
whose rate is zero is always a regression, not a skip.

The gate reports *every* problem it finds — structural issues
(unreadable files, a missing reference row) and all regressed rows
alike — in a single run, so one CI round trip shows the full damage
instead of the first failure only.

Usage:
    check_perf.py BASELINE.json CURRENT.json [--threshold 0.25]
                  [--allow-new]
"""

import argparse
import json
import sys

REFERENCE = "BM_CacheAccess"


def load_rates(path, problems):
    """Map benchmark name -> items_per_second for rows that report it.

    A row reporting an explicit 0 is kept (it means the benchmark
    collapsed, which the gate must flag); only rows that do not report
    items_per_second at all (e.g. wall-time-only analyses) are skipped.
    An unreadable or malformed file becomes a problem entry and an
    empty map, so the other file is still checked.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        problems.append(f"{path}: cannot load: {err}")
        return {}
    rates = {}
    for row in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if present.
        if row.get("run_type") == "aggregate":
            continue
        ips = row.get("items_per_second")
        if ips is not None:
            rates[row["name"]] = float(ips)
    return rates


def relative(rates, label, problems):
    """Normalise by the reference row; None when that row is unusable."""
    ref = rates.get(REFERENCE)
    if not ref:
        problems.append(
            f"{label}: reference row {REFERENCE} missing or zero")
        return None
    return {name: ips / ref for name, ips in rates.items()
            if name != REFERENCE}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--allow-new", action="store_true",
                        help="warn instead of fail on rows missing "
                             "from the baseline")
    args = parser.parse_args()

    problems = []
    base = relative(load_rates(args.baseline, problems),
                    args.baseline, problems)

    cur = relative(load_rates(args.current, problems), "current run",
                   problems)

    if base is not None and cur is not None:
        width = max(len(n) for n in base) if base else 0
        print(f"{'benchmark':<{width}}  base-rel  cur-rel   ratio")
        for name in sorted(base):
            if name not in cur:
                problems.append(f"{name}: missing from current run")
                continue
            if base[name] == 0.0:
                problems.append(f"{name}: baseline rate is zero; "
                                f"re-record the baseline")
                continue
            ratio = cur[name] / base[name]
            flag = ""
            if cur[name] == 0.0 or ratio < 1.0 - args.threshold:
                problems.append(
                    f"{name}: relative throughput {ratio:.2f}x of "
                    f"baseline (limit {1.0 - args.threshold:.2f}x)")
                flag = "  << REGRESSION"
            print(f"{name:<{width}}  {base[name]:8.3f}  "
                  f"{cur[name]:8.3f}  {ratio:5.2f}x{flag}")

        for name in sorted(set(cur) - set(base)):
            if args.allow_new:
                print(f"warning: {name} not in baseline "
                      f"(cur-rel {cur[name]:.3f}); add it",
                      file=sys.stderr)
            else:
                problems.append(
                    f"{name}: not in baseline — re-record the baseline "
                    f"or pass --allow-new")

    if problems:
        print(f"\nperf gate FAILED ({len(problems)} problem"
              f"{'s' if len(problems) != 1 else ''}):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed ({len(base)} rows, "
          f"threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
