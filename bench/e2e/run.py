#!/usr/bin/env python3
"""Builds proteusd and bench_e2e from this checkout, then runs one benchmark.

Usage (from the root of a checkout):

    python3 bench/e2e/run.py --workload kernels --seed 1 --seconds 25 --trace 0

Every argument is passed on to bench_e2e (see bench_e2e.cpp). The build is
the repository's root tree in Release, with bench/e2e attached to it
(attach.cmake), in .bench_build/e2e; its output goes to
.bench_build/e2e/build.log, so standard output carries only the benchmark's
own lines, the last of which is the result JSON. Unless given, --out and
--chrome default to files under .bench_build/e2e. Exits non-zero, printing no
result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DPROTEUS_WERROR=OFF",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(HERE, "attach.cmake")])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "bench_e2e", "proteusd"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                sys.exit(1)


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main():
    args = sys.argv[1:]
    build()
    workload = arg_value(args, "--workload", "workload")
    extra = ["--proteusd", os.path.join(BUILD, "tools", "proteusd"),
             "--root", ROOT]
    if "--out" not in args:
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        extra += ["--out", os.path.join(results, "%s-seed%s-trace%s.json" % (
            workload, arg_value(args, "--seed", "1"),
            arg_value(args, "--trace", "0")))]
    if "--chrome" not in args:
        extra += ["--chrome",
                  os.path.join(BUILD, "bench_e2e_trace-%s.json" % workload)]
    sys.stdout.flush()
    sys.exit(subprocess.call(
        [os.path.join(BUILD, "bench_e2e")] + args + extra))


if __name__ == "__main__":
    main()
