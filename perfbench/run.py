#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload wire --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the Cooper libraries from src/ plus the benchmark
binary) into .bench_build/perfbench with CMake, then runs the binary.
Build output goes to stderr; the binary's last stdout line is the
result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wire", "groups", "fleet")


def build():
    """Configure once, then build the benchmark target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Cooper sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--inject", choices=("flip", "drop"),
                        help="break the correctness gate on purpose")
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit("perfbench: build failed (%s)" % err)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--workdir", os.path.join(ROOT, ".bench_build", "work")]
    if args.inject:
        command += ["--inject", args.inject]
    sys.stdout.flush()
    os.execv(binary, command)


if __name__ == "__main__":
    main()
