#!/usr/bin/env python3
"""Build the benchmark binary (mpcc_perfbench) from source and run one workload.

    python3 perfbench/run.py --workload fleet_k16 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
mpcc library and mpcc_perfbench (Release) under .bench_build/perfbench; later
calls rebuild incrementally. Build output goes to stderr, so the last line
of stdout is mpcc_perfbench's JSON result. Its exit code is passed on: 0 when
every output passed its check, 1 when one failed, 2 when the benchmark
refuses to run (no sources next to perfbench/, a check switched off).
See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "mpcc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fleet_k16", "figure_corpus", "chaos_heal"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb-golden", action="store_true",
                    help="self-check: corrupt one golden value in memory (needs --seed 1)")
    ap.add_argument("--inject-throw", action="store_true",
                    help="self-check: add the selftest_harness point whose runner throws")
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "cmake/git_stamp.cmake", "scenarios/golden"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a full mpcc checkout",
                  file=sys.stderr)
            return 2

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenario-dir", os.path.join(ROOT, "scenarios")]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.json")]
    if args.perturb_golden:
        cmd += ["--perturb-golden", "1"]
    if args.inject_throw:
        cmd += ["--inject-throw", "1"]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
