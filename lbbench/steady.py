#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

Runs the benchmark command from BENCHMARK.json `--runs` times per
workload in each of two sets, every run with its own seed and
BENCHMARK.json's `run_seconds`, and for each end-to-end metric reports
each set's median and quartiles. It fails (exit 1) when a set's quartile
spread, (q3 - q1) / median, exceeds the metric's bound, or when the
second set's median is worse than the first set's by more than the
bound, or when any run fails its output check. The summary also goes to
lbbench/out/steady.json.

Run from anywhere:  python3 lbbench/steady.py [--runs 10] [--workloads a,b]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    opts = ap.parse_args()
    workloads = opts.workloads.split(",")
    metrics = bench["end_to_end"]

    # values[set][workload][metric] -> list over runs
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(SETS)]
    seed = 1
    for s in range(SETS):
        for i in range(opts.runs):
            # Workloads interleave so that slow phases of a shared host
            # spread over all of them instead of landing on one.
            for w in workloads:
                result, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
                for m in metrics:
                    values[s][w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {wall:.1f} s", flush=True)
                seed += 1

    failures, summary = [], {}
    print(f"\n{'workload':<20} {'metric':<18} " + " ".join(
        f"{'set ' + str(s + 1) + ' q1/median/q3 (spread)':>44}" for s in range(SETS)) + "  bound")
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [quartiles(values[s][w][name]) for s in range(SETS)]
            spreads = [(q3 - q1) / med for q1, med, q3 in sets]
            cells = " ".join(f"{q1:>12.6g} {med:>12.6g} {q3:>12.6g} ({sp:5.1%})"
                             for (q1, med, q3), sp in zip(sets, spreads))
            print(f"{w:<20} {name:<18} {cells}  {bound:.0%}")
            for s, sp in enumerate(spreads):
                if sp > bound:
                    failures.append(f"{w} {name}: set {s + 1} spread {sp:.1%} > bound {bound:.0%}")
            drift = worse_by(m, sets[0][1], sets[1][1])
            if drift > bound:
                failures.append(f"{w} {name}: set 2 median {drift:.1%} worse than set 1")
            summary[w][name] = {
                "unit": m["unit"],
                "sets": [{"q1": q1, "median": med, "q3": q3, "spread": sp, "values": values[s][w][name]}
                         for s, ((q1, med, q3), sp) in enumerate(zip(sets, spreads))],
            }
    out = ROOT / "lbbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    for f in failures:
        print("NOT STEADY:", f)
    print("steady" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
