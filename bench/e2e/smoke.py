#!/usr/bin/env python3
"""Smoke test for nxd_bench: every workload at about 1% size, untraced and
traced.  Asserts that the output checks pass, the summary line names
exactly the metrics BENCHMARK.json declares (with their units), every value
is finite (end-to-end values positive), and the traced ledger reconciles:
layer self times plus the unattributed remainder equal the traced wall
time, and the unattributed share stays under 25%.

    python3 bench/e2e/smoke.py --bin .bench_build/nxd_bench \\
        --benchmark-json BENCHMARK.json --work-dir .bench_build/smoke
"""
import argparse
import json
import math
import subprocess
import sys
import time

MAX_UNATTRIBUTED_PCT = 25.0


def run(binary, workload, trace, work_dir):
    cmd = [binary, f"--workload={workload}", "--seed=1", "--seconds=0.3",
           "--smoke", f"--work-dir={work_dir}"]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload, trace, full, summary, declared):
    label = f"{workload}{' --trace' if trace else ''}"
    errors = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"summary keys {sorted(summary)}")
    if summary.get("correct") is not True:
        errors.append(f"checks failed: {full.get('failed_checks')}")
    if summary.get("failed") != 0 or summary.get("attempted", 0) < 1:
        errors.append(f"attempted {summary.get('attempted')} "
                      f"failed {summary.get('failed')}")
    metrics = summary.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"undeclared {sorted(set(metrics) - set(declared))}, "
                      f"missing {sorted(set(declared) - set(metrics))}")
    for name, m in metrics.items():
        if name in declared and m["unit"] != declared[name]:
            errors.append(f"{name} unit {m['unit']} != {declared[name]}")
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name} = {value}")
        elif not trace and value <= 0:
            errors.append(f"{name} = {value} is not positive")
    if trace:
        d = full["detail"]
        wall = d.get("ledger.wall_s", 0)
        summed = d.get("ledger.layers_s", 0) + d.get("ledger.unattributed_s", 0)
        if wall <= 0 or abs(summed - wall) > 1e-6 * wall + 1e-9:
            errors.append(f"ledger does not reconcile: {summed} vs {wall}")
        share = metrics.get("ledger.unattributed_pct", {}).get("value", 100)
        if share > MAX_UNATTRIBUTED_PCT:
            errors.append(f"unattributed {share:.1f}% of the traced wall")
        print(f"  {label}: ledger wall {wall:.3f} s, unattributed "
              f"{share:.1f}%")
    for e in errors:
        print(f"FAIL {label}: {e}")
    return not errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json, encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    start = time.monotonic()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            try:
                full, summary = run(args.bin, workload, trace, args.work_dir)
            except (AssertionError, subprocess.TimeoutExpired,
                    json.JSONDecodeError) as e:
                print(f"FAIL {workload}: {e}")
                ok = False
                continue
            ok &= check(workload, trace, full, summary,
                        layer if trace else e2e)
    print(f"smoke: {'ok' if ok else 'FAILED'} in "
          f"{time.monotonic() - start:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
