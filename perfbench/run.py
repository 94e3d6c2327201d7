#!/usr/bin/env python3
"""Build and run the updsm benchmark. Run it from the repository root.

    python3 perfbench/run.py --workload paper-fft --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The simulator libraries under src/ and the benchmark program are built with
CMake into .bench_build/perfbench on first use; later runs rebuild only what
changed. The program's last stdout line is the result object (correct,
attempted, failed, metrics); the line before it is the full report, split
into provenance and results. With --trace 1 the spans of the last traced
answer are written to .bench_build/spans/<workload>-seed<seed>.csv.

--self-check runs every workload at tiny size in both trace modes and
checks that every metric named in BENCHMARK.json is printed with its unit
and that no answer failed.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
SPANS_DIR = os.path.join(".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "updsm_perfbench")
WORKLOADS = ("paper-fft", "wide-jacobi", "async-jacobi")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Content hash of the simulator and benchmark sources. It stands in
    for a commit id, which an exported source tree does not carry."""
    digest = hashlib.sha256()
    for root in ("src", os.path.relpath(HERE)):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt); run from the "
             "repository root")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(HERE), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")


def run_bench(args, capture):
    cmd = [BINARY] + args
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {RUN_TIMEOUT_S} s")


def self_check():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    source = source_id()
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            done = run_bench(["--workload", workload, "--seed", "7",
                              "--seconds", "0.5", "--trace", trace, "--tiny",
                              "--source", source], capture=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exited {done.returncode}")
                continue
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} answers failed")
            if report["results"]["fail_frac"] != 0:
                problems.append(f"{label}: fail_frac is not 0")
            if not {"host_cores", "workers", "gang", "compiler",
                    "build_type", "source", "seed"} <= set(report["provenance"]):
                problems.append(f"{label}: provenance is incomplete")
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                m = metrics.get(name)
                if m is None:
                    problems.append(f"{label}: metric {name} missing")
                elif m["unit"] != unit or not math.isfinite(m["value"]):
                    problems.append(f"{label}: metric {name} = {m}, "
                                    f"expected a finite value in {unit}")
            for name in set(metrics) - set(expected[trace]):
                problems.append(f"{label}: unlisted metric {name}")
            print(f"checked {label}: {result['attempted']} answers, "
                  f"{len(metrics)} metrics")
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_check:
        return self_check()

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", args.trace,
                  "--source", source_id()]
    if args.trace == "1":
        os.makedirs(SPANS_DIR, exist_ok=True)
        bench_args += ["--spans", os.path.join(
            SPANS_DIR, f"{args.workload}-seed{args.seed}.csv")]
    sys.stdout.flush()
    return run_bench(bench_args, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
