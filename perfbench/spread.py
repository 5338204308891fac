#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload broadcast --seeds 1-10 \
        [--seconds S] [--trace 0] [--out FILE.json]

Runs perfbench/run.py once per seed (sequentially), then prints for every
metric its median, first and third quartile (statistics.quantiles, n=4) and
the quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. --out writes the runs and the summary as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs):
    names = sorted({m for r in runs for m in r["metrics"]})
    out = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"], "n": len(vals)}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs, details = [], []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append(result)
        details.append(detail)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    summary = summarize(runs)
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, s in summary.items():
        bound = bounds.get(name)
        print(f"{name:34} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['iqr_share']:8.3f} {bound if bound is not None else '':>6}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "trace": args.trace, "seeds": parse_seeds(args.seeds),
                       "summary": summary, "runs": runs, "details": details},
                      f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
