#!/usr/bin/env python3
"""Run perfbench workloads N times and report each metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--trace 0|1] [--seconds S] [--out FILE]

Run it from the repository root. Each run uses the next seed. For every
workload and metric it prints the median, the first and third quartile
(Python's statistics.quantiles(values, n=4)), and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A
spread is "ok" below a third of the bound, "wide" up to the bound, and
"OVER" beyond it. The ungated figures of each run's "pooled" JSON line
(p99, rank_error, tolerated certificate misses) are listed too, without
a bound. --out writes every run's result as JSON lines.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """Returns the run's result and the ungated figures of its pooled line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit("%s seed %d failed with exit code %d"
                         % (workload, seed, proc.returncode))
    ungated = {}
    for line in lines:
        if line.startswith("pooled "):
            ungated = json.loads(line[len("pooled "):])
    return json.loads(lines[-1]), ungated


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = open(args.out, "a") if args.out else None
    worst = 0.0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            res, ungated = run_once(w, seed, args.seconds, args.trace)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "trace": args.trace, "result": res,
                                      "ungated": ungated}) + "\n")
                out.flush()
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in ungated.items():
                values.setdefault(name, []).append(v)
            print("  %s seed %d: attempted %d failed %d correct %s"
                  % (w, seed, res["attempted"], res["failed"], res["correct"]),
                  flush=True)
        print("%s (%d runs)" % (w, args.runs))
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound:
                verdict = ("ok" if spread < bound / 3 else
                           "wide" if spread <= bound else "OVER")
                worst = max(worst, spread / bound)
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %-8.4f bound %-6s %s"
                  % (name, med, q1, q3, spread, bound if bound else "-", verdict),
                  flush=True)
    if bounds and any(bounds.values()):
        print("worst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
