#!/usr/bin/env python3
"""Compares proteus-e2e result files of a parent commit and a change.

Usage:

    python3 bench/e2e/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...

Each file is one result written by bench_e2e --out, or a set of them
({"runs": [...]}, as in baseline/). The i-th parent run and the i-th change
run form a pair; run them alternately, parent first in one pair and change
first in the next. Only runs whose workload fingerprints match are compared,
so an edited program or generator shows up as a different workload instead
of as a speed-up.

For every workload and end-to-end metric of BENCHMARK.json, and for the
unbounded REPORTED ones, it prints each side's median and quartiles, the
share of pairs the change wins (ties count for neither), and one verdict:

  improved    there are at least MIN_PAIRS pairs, the change wins at least
              90 % of them, and the medians differ by more than the parent's
              own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the metric's bound; or, as for improved, the change loses at
              least 90 % of at least MIN_PAIRS pairs and the medians differ
              by more than the parent's quartile spread
  unresolved  the parent's own spread is wider than the bound (always, for
              a metric without one), and not every change run beats every
              parent run
  unchanged   otherwise

Alternating pairs see the same slow drift of the machine, so the pair rules
can resolve a difference smaller than a bound. With fewer than MIN_PAIRS
pairs neither pair rule applies; the workload's header line says so. Count
metrics (those in the units of COUNT_UNITS, as bench_e2e writes them) must
repeat exactly within each side; a difference between the sides is reported
as a count, never as a speed-up. Exits 1 on a regression, on an error-rate
increase, or when counts do not repeat; 2 when no runs are comparable.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
COUNT_UNITS = {"count", "bytes", "ratio"}
# Printed by bench_e2e but too unsteady for a bound (README.md).
REPORTED = [{"name": "latency_p99_ms", "better": "lower", "bound": None}]


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, bound, higher_better, pairs):
    """The section-8 rule for one metric; `pairs` holds (parent, change).
    `bound` is None for a metric without one."""
    better = (lambda c, p: c > p) if higher_better else (lambda c, p: c < p)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    wins = sum(1 for p, c in pairs if better(c, p))
    losses = sum(1 for p, c in pairs if better(p, c))
    win_share = wins / len(pairs) if pairs else 0.0
    apart = abs(c_med - p_med) > p_hi - p_lo
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= 0.9 * len(pairs) and better(c_med, p_med) and apart:
        return "improved", win_share
    if enough and losses >= 0.9 * len(pairs) and better(p_med, c_med) and apart:
        return "regressed", win_share
    worse_by = (p_med - c_med) if higher_better else (c_med - p_med)
    if bound is not None and worse_by > bound * abs(p_med):
        return "regressed", win_share
    all_better = all(better(c, p) for c in change for p in parent)
    if all_better:
        return "unchanged", win_share
    if (bound is None or
            (p_med != 0 and (p_hi - p_lo) / abs(p_med) > bound)):
        return "unresolved", win_share
    return "unchanged", win_share


def error_rate(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    metrics += [m for m in REPORTED
                if m["name"] not in {b["name"] for b in metrics}]
    parent = load_runs(args.parent)
    change = load_runs(args.change)

    failed = False
    compared = 0
    for workload in sorted({r["workload"] for r in parent + change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        fingerprints = {r["fingerprint"] for r in p_runs}
        c_match = [r for r in c_runs if r["fingerprint"] in fingerprints]
        p_match = [r for r in p_runs
                   if r["fingerprint"] in {c["fingerprint"] for c in c_match}]
        if not p_match or not c_match:
            print("%s: no runs with matching fingerprints; not compared" %
                  workload)
            continue
        if len(c_match) < len(c_runs) or len(p_match) < len(p_runs):
            print("%s: %d parent and %d change runs skipped (fingerprint)" %
                  (workload, len(p_runs) - len(p_match),
                   len(c_runs) - len(c_match)))
        compared += 1
        pairs_of = [(p, c) for p, c in zip(p_match, c_match)
                    if p["fingerprint"] == c["fingerprint"]]
        # A --trace 1 run measures the served path for half its time, so
        # only --trace 0 runs give end-to-end numbers.
        p_e2e = [r for r in p_match if r["trace"] == 0]
        c_e2e = [r for r in c_match if r["trace"] == 0]
        pairs_e2e = [(p, c) for p, c in pairs_of
                     if p["trace"] == 0 and c["trace"] == 0]
        print("\n%s  (end to end: %d parent runs, %d change runs, %d pairs%s)" %
              (workload, len(p_e2e), len(c_e2e), len(pairs_e2e),
               "; too few for the pair rules"
               if len(pairs_e2e) < MIN_PAIRS else ""))
        print("  %-22s %28s %28s %6s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "wins", "verdict"))
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_e2e]
            cv = [r["metrics"][name]["value"] for r in c_e2e]
            if not pv or not cv:
                continue
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in pairs_e2e]
            v, wins = verdict(pv, cv, m["bound"], m["better"] == "higher",
                              pairs)
            failed |= v == "regressed"
            fmt = "%10.4g [%.4g, %.4g]"
            print("  %-22s %28s %28s %5.0f%%  %s" % (
                name, fmt % ((statistics.median(pv),) + quartiles(pv)),
                fmt % ((statistics.median(cv),) + quartiles(cv)),
                100 * wins, v))

        p_err, c_err = error_rate(p_match), error_rate(c_match)
        print("  %-22s %28.6g %28.6g" % ("error_rate", p_err, c_err))
        if c_err > p_err:
            print("  error rate increased")
            failed = True

        for side, runs in (("parent", p_match), ("change", c_match)):
            by_seed = {}
            for r in runs:
                for name, metric in r["metrics"].items():
                    if metric["unit"] in COUNT_UNITS:
                        by_seed.setdefault((r["fingerprint"], name),
                                           []).append(metric["value"])
            repeated = 0
            for (_, name), values in sorted(by_seed.items()):
                if len(set(values)) > 1:
                    print("  %s count %s does not repeat: %s" %
                          (side, name, sorted(set(values))))
                    failed = True
                elif len(values) > 1:
                    repeated += 1
            if by_seed:
                print("  %s: %d counts repeat exactly" % (side, repeated))
        deltas = {}
        for p, c in pairs_of:
            for name, metric in c["metrics"].items():
                if metric["unit"] in COUNT_UNITS and name in p["metrics"]:
                    before = p["metrics"][name]["value"]
                    if metric["value"] != before:
                        deltas[name] = (before, metric["value"])
        for name, (before, after) in sorted(deltas.items()):
            print("  count %s: %.6g -> %.6g" % (name, before, after))

    if compared == 0:
        print("no comparable runs")
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
