#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
the library sources under src/ plus the binary in perfbench/src/ into
the build directory ($CARGO_TARGET_DIR when set, else .bench_build);
later calls rebuild only what changed.

One run is PROCESSES benchmark processes in a row, each for an equal share
of --seconds and each building its starting state once. Process k gets
the input seed PROCESSES * seed + k, so a seed still fixes every input.
Identical CPU-bound work varies by about 10 % between processes on a
shared host, and three input samples average out more of the data than
one, so the run pools the processes: op latencies and throughput come
from all their ops together, every other metric is the median over the
processes (setup_s is thus the median of several set-ups). Each
process's report is passed through, then a "pooled" line with the
ungated pooled figures as one JSON object; the last line of stdout is
the pooled JSON result. The exit code is 0 only when every process passed
the correctness gate.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def quantile(values, q):
    """Linear-interpolated quantile (numpy's default definition)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def run_process(binary, args, seed, seconds):
    """Runs one benchmark process; returns (exit code, result, report, samples)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result, report, samples = None, None, None
    for line in lines[:-1]:
        if line.startswith("samples "):
            samples = json.loads(line[len("samples "):])
            continue
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
        print(line)
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    return proc.returncode, result, report, samples


def pool(results, reports, samples, trace):
    """Pools the processes' results into one; prints the pooled extras."""
    names = results[0]["metrics"].keys()
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": results[0]["metrics"][name]["unit"]}
    extra = {}
    if not trace:
        op_ms = [x for s in samples for x in s["op_ms"]]
        work = sum(s["work_per_op"] * len(s["op_ms"]) for s in samples)
        metrics["latency_p50_ms"]["value"] = quantile(op_ms, 0.5)
        metrics["throughput_per_s"]["value"] = 1000.0 * work / sum(op_ms)
        extra["ops"] = len(op_ms)
        extra["latency_p90_ms"] = quantile(op_ms, 0.9)
        if len(op_ms) >= 1000:
            extra["latency_p99_ms"] = quantile(op_ms, 0.99)
        extra["rank_error"] = statistics.median(
            r["extra"]["rank_error"]["value"] for r in reports)
    for name in ("known_cert_misses", "hair_cert_misses"):
        extra[name] = sum(r["extra"][name]["value"] for r in reports)
    # Ungated figures, one JSON object (steadiness.py reads it).
    print("pooled " + json.dumps(extra))
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ingest", "streaming_cube.h")):
        print("perfbench: library sources not found under src/", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    results, reports, samples = [], [], []
    code = 0
    for k in range(PROCESSES):
        rc, result, report, sample = run_process(
            binary, args, args.seed * PROCESSES + k, args.seconds / PROCESSES)
        if result is None or report is None or (not args.trace and sample is None):
            print("perfbench: a benchmark process ended without a result",
                  file=sys.stderr)
            return rc or 2
        code = code or rc
        results.append(result)
        reports.append(report)
        samples.append(sample)
    print(json.dumps(pool(results, reports, samples, args.trace)))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
