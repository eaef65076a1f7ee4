#!/usr/bin/env python3
"""perfbench: the repository benchmark, one command.

    python3 perfbench/run.py --workload vgg16_offline --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt,
which compiles ../src) into .bench_build/perfbench on first use, runs one
workload and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload twice
with the same seed, untraced and then traced, and reports the per-layer
metrics of the traced run plus "trace_overhead.<metric>", the traced minus
the untraced value of each end-to-end metric. The traced run's spans are
written to .bench_build/perfbench/spans-<workload>-<seed>.txt.

The line before the result is the host stamp (cores, CPU, AVX2, TTFS_SIMD,
compiler, build type, compute-pool size). Exit status is 0 only when every
correctness check passed; a failed build or check exits 1, bad arguments 2.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("vgg16_offline", "wire_poisson", "wire_saturate")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(src_dir, build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_harness(binary, args, trace, spans_path=None):
    """Runs one workload; returns (host line, result dict)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2 or proc.returncode not in (0, 1):
        raise RuntimeError(f"harness exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    for err in result["errors"]:
        log(f"check failed: {err}")
    return lines[-2], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    try:
        binary = build(here, build_dir)
        host, untraced = run_harness(binary, args, trace=False)
        runs = [untraced]
        if args.trace:
            spans = os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.txt")
            host, traced = run_harness(binary, args, trace=True, spans_path=spans)
            runs.append(traced)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError, ValueError, KeyError) as e:
        log(f"no result: {e}")
        return 1

    if args.trace:
        metrics = dict(traced["layer"])
        for name, m in untraced["e2e"].items():
            metrics[f"trace_overhead.{name}"] = {
                "value": traced["e2e"][name]["value"] - m["value"], "unit": m["unit"]}
    else:
        metrics = untraced["e2e"]
    correct = all(r["correct"] for r in runs)
    print(host)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
