#!/bin/sh
# Reproduce every result: build, run the full test suite, regenerate every
# figure/claim bench (see EXPERIMENTS.md for the expected shapes).
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
# bench_workloads also leaves machine-readable BENCH_<name>.json files
# (quicksort, quickhull, spmv on both engines) in the repo root —
# see docs/OBSERVABILITY.md for the schema.
for b in build/bench/bench_*; do "$b"; done 2>&1 | tee bench_output.txt
echo "done: see test_output.txt, bench_output.txt"
echo "      and machine-readable BENCH_*.json:"
ls -1 BENCH_*.json 2>/dev/null || true
