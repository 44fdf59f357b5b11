#!/usr/bin/env python3
"""Host-cost benchmark entry point.

Builds the optimized `perfbench` binary from this directory's CMake project
(which compiles the simulator library from ../src), then runs one workload:

    python3 perfbench/run.py --workload syscall_storm --seed 1 --seconds 25 --trace 0

The binary prints a summary and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. Build output goes to stderr.

    python3 perfbench/run.py --regen-witness

rewrites perfbench/witness/<workload>.txt, the reference simulated
statistics of every input set (seeds 0-127), after a deliberate model or
codec change (about 10 minutes: three input sets at a time).
"""
import argparse
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("syscall_storm", "supervised_fleet", "fi_campaign")
INPUT_SETS = range(0, 128)  # seed n runs input set n mod 128
REGEN_JOBS = 3


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def witness_file(workload):
    return os.path.join(HERE, "witness", workload + ".txt")


def witness_line(workload, seed):
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--witness-only"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip().splitlines()[-1]


def regen_witness():
    with ThreadPoolExecutor(max_workers=REGEN_JOBS) as pool:
        for w in WORKLOADS:
            lines = list(pool.map(lambda s: witness_line(w, s), INPUT_SETS))
            with open(witness_file(w), "w") as f:
                f.write("\n".join(lines) + "\n")
            print(f"wrote {witness_file(w)} ({len(lines)} input sets)")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--regen-witness", action="store_true")
    args = p.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.regen_witness:
        regen_witness()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--witness-file", witness_file(args.workload),
           "--spans-out", os.path.join(BUILD, f"spans_{args.workload}.csv")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
