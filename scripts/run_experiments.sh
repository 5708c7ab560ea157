#!/usr/bin/env bash
# Regenerates every artifact recorded in EXPERIMENTS.md:
#   - builds the project,
#   - runs the full test suite (paper listings, table 3, properties, ...),
#   - runs every bench under build/bench/ (full runs; BENCH_ARGS=--smoke
#     for reduced ones), each writing BENCH_<name>.json (or
#     BENCH_<name>.smoke.json) and stopping the script with exit 1 on a
#     failed correctness check or performance gate,
# leaving test_output.txt and bench_output.txt in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "==== $b ====" | tee -a bench_output.txt
    "$b" ${BENCH_ARGS:-} 2>&1 | tee -a bench_output.txt
  fi
done

echo "done: test_output.txt, bench_output.txt"
