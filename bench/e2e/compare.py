#!/usr/bin/env python3
"""Summarise or compare end-to-end benchmark results.

    python3 bench/e2e/compare.py BASE_DIR            # median and quartiles
    python3 bench/e2e/compare.py BASE_DIR NEW_DIR    # verdict per metric

Each directory holds the result files nxd_bench writes with --out (one per
run, `<workload>-seed<n>.json`; traced runs are ignored).  For every
workload and end-to-end metric declared in BENCHMARK.json the comparison
prints both medians, the quartiles, the metric's bound and a verdict:

  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  a side's spread (quartile distance / median) exceeds the
              bound, and not every NEW run beats every BASE run
  better      NEW wins at least 9 of every 10 pairs (runs paired by seed,
              ties count for neither) and the medians differ by more than
              BASE's quartile distance; or the spread is too wide but every
              NEW run beats every BASE run
  unchanged   anything else

It exits 1 when any metric is worse or the failed/attempted ratio rose.
"""
import argparse
import glob
import json
import os
import statistics
import sys

DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "..", "BENCHMARK.json")


def load_runs(directory):
    """{workload: {seed: result}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            result = json.load(f)
        if result["context"]["trace"]:
            continue
        seed = result["context"]["seed"]
        runs.setdefault(result["workload"], {})[seed] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fail_ratio(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def values_of(runs, name):
    return [runs[s]["end_to_end"][name]["value"] for s in sorted(runs)]


def verdict(base, new, lower_better, bound):
    """Verdict for one metric from the per-seed value dicts."""
    base_values, new_values = list(base.values()), list(new.values())
    base_med = statistics.median(base_values)
    new_med = statistics.median(new_values)

    def better(a, b):  # a reads better than b
        return a < b if lower_better else a > b

    worse_by = (new_med - base_med) / base_med if lower_better else \
        (base_med - new_med) / base_med
    if worse_by > bound:
        return "worse"
    all_better = all(better(n, b) for n in new_values for b in base_values)
    if max(spread(base_values), spread(new_values)) > bound:
        return "better" if all_better else "unresolved"
    seeds = sorted(set(base) & set(new))
    pairs = list(zip([base[s] for s in seeds], [new[s] for s in seeds])) \
        if seeds else list(zip(base_values, new_values))
    wins = sum(1 for b, n in pairs if better(n, b))
    q1, _, q3 = quartiles(base_values)
    if pairs and wins >= 0.9 * len(pairs) and abs(new_med - base_med) > q3 - q1:
        return "better"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_SPEC,
                        help="BENCHMARK.json declaring metrics and bounds")
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    base_runs = load_runs(args.base)
    new_runs = load_runs(args.new) if args.new else None
    regression = False

    for workload in [w["name"] for w in spec["workloads"]]:
        base = base_runs.get(workload, {})
        if not base:
            print(f"{workload}: no runs in {args.base}")
            continue
        new = new_runs.get(workload, {}) if new_runs is not None else None
        first = next(iter(base.values()))["context"]
        print(f"\n== {workload} ({len(base)} runs"
              + (f" vs {len(new)}" if new is not None else "")
              + f"; {first['cpu_model']}, nproc {first['nproc']}, "
              f"{first['build_type']})")
        if new is None:
            print(f"{'metric':<14} {'unit':<5} {'median':>12} {'q1':>12} "
                  f"{'q3':>12} {'iqr/med':>8} {'bound':>6}")
        else:
            print(f"{'metric':<14} {'unit':<5} {'base':>12} {'new':>12} "
                  f"{'new q1':>12} {'new q3':>12} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower_better = metric["better"] == "lower"
            base_values = values_of(base, name)
            q1, med, q3 = quartiles(base_values)
            if new is None:
                print(f"{name:<14} {metric['unit']:<5} {med:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} "
                      f"{spread(base_values):>8.3f} {bound:>6.2f}")
                continue
            if not new:
                print(f"{name:<14} no runs in {args.new}")
                continue
            new_by_seed = {s: r["end_to_end"][name]["value"]
                           for s, r in new.items()}
            base_by_seed = {s: r["end_to_end"][name]["value"]
                            for s, r in base.items()}
            v = verdict(base_by_seed, new_by_seed, lower_better, bound)
            regression |= v == "worse"
            nq1, nmed, nq3 = quartiles(list(new_by_seed.values()))
            print(f"{name:<14} {metric['unit']:<5} {med:>12.6g} {nmed:>12.6g} "
                  f"{nq1:>12.6g} {nq3:>12.6g} {bound:>6.2f}  {v}")
        base_fail = fail_ratio(base.values())
        if new is None:
            print(f"fail_ratio     {base_fail:.6g}")
        elif new:
            new_fail = fail_ratio(new.values())
            rose = new_fail > base_fail
            regression |= rose
            print(f"fail_ratio     {base_fail:.6g} -> {new_fail:.6g}"
                  + ("  worse" if rose else ""))
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
