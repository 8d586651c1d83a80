#!/usr/bin/env python3
"""Steadiness mode: run each workload with several seeds and print, per
metric, the median and the quartile spread (Q3 - Q1 over the median).

    python3 perfbench/steady.py [--runs 10] [--workloads check,measure,...]

Run from the root of a cdse checkout. Run i (from 1) is one untraced
invocation of perfbench/run.py with seed i, for the run_seconds that
BENCHMARK.json sets. Spreads are the figures the
end-to-end bounds in BENCHMARK.json are set from; a set is steady when
every spread except setup_s stays within a third of its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, bench["run_seconds"])
                   for seed in range(1, args.runs + 1)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {shares}, ops {[r['attempted'] for r in results]}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(values)
            print(f"  {name:28s} median {med:12.4f} {results[0]['metrics'][name]['unit']:9s}"
                  f" spread {sp:7.4f}  bound {bounds[name]}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
